package main

import (
	"fmt"

	"passv2/internal/passd"
)

// boot boots the workload's daemon inside a boot span.
func (b *bench) boot(dir string) (*node, error) {
	id, start := b.tr.begin()
	n, err := bootNode(dir, &b.c, b.tr, id)
	b.tr.finish(id, 0, spanBoot, "", 0, start)
	return n, err
}

// observe records the database's and the MMR's shape from a node that
// is still up, before daemonHeap shuts it down.
func (m *measurement) observe(n *node) {
	m.tree = n.w.DB.TreeStats()
	m.dbRecords, _, _ = n.w.DB.Stats()
	m.mmrLeaves = n.writer.MMR().Count()
	m.chainLen = len(n.rec.Chain)
}

// finish fills in what every workload measures the same way once its
// daemon has shut down: bytes stored and written, the log's shape, and
// the exact MMR check against the leaves observe or the workload saw.
// A workload that runs several windows calls it after each.
func (b *bench) finish(m *measurement, dir string) error {
	m.c = m.c.plus(b.c.snap().minus(m.cOpen))
	m.attempted, m.failed = b.attempted.Load(), b.failed.Load()
	m.writtenBytes = m.c.written
	var err error
	if m.storedBytes, err = dirBytes(dir); err != nil {
		return err
	}
	if m.logBytes, m.logRecords, err = logShape(dir); err != nil {
		return err
	}
	if m.mmrLeaves != uint64(m.logRecords) {
		return fmt.Errorf("MMR has %d leaves, the log has %d record frames", m.mmrLeaves, m.logRecords)
	}
	return nil
}

// split returns the latencies of all samples, of those taken with tracing
// on, and of those taken with it off.
func split(ss []sample) (all, on, off []float64) {
	for _, s := range ss {
		all = append(all, s.ms)
		if s.traced {
			on = append(on, s.ms)
		} else {
			off = append(off, s.ms)
		}
	}
	return all, on, off
}

// throughput is the median over the window's whole seconds of each
// second's throughput, so that a second or two taken by a checkpoint, a
// collection or a noisy neighbour moves it less. A second's throughput
// is its work over one second, or over its operations' own time when the
// workload's busy time is theirs (restart). Ingest, whose window is split
// into rounds, reports its work over the rounds' summed length instead.
func throughput(ss []sample, m *measurement) float64 {
	if m.meanRate {
		return ratio(m.opUnits, m.windowSecs)
	}
	secs := int(m.windowSecs)
	if secs < 1 {
		return ratio(m.opUnits, m.busySecs)
	}
	units := make([]float64, secs)
	busy := make([]float64, secs)
	for _, s := range ss {
		if i := int(s.at); i < secs {
			units[i] += s.units
			busy[i] += s.ms / 1e3
		}
	}
	var per []float64
	for i := range units {
		switch {
		case !m.opBusy:
			per = append(per, units[i])
		case busy[i] > 0:
			per = append(per, units[i]/busy[i])
		}
	}
	return median(per)
}

// endToEnd is the untraced run's report: what a user of the daemon sees.
// The operation is the workload's own: a batch's durable ack (ingest), a
// remote query (query), a boot to its first correct answer (restart).
func (b *bench) endToEnd(m *measurement) map[string]metric {
	all, _, _ := split(b.ops)
	return map[string]metric{
		"setup_s":                  {median(m.setupSecs), "s"},
		"throughput_per_s":         {throughput(b.ops, m), "1/s"},
		"latency_p50_ms":           {median(all), "ms"},
		"latency_tail_ms":          {percentile(all, m.tailQ), "ms"},
		"stored_bytes_per_record":  {ratio(float64(m.storedBytes), float64(m.dbRecords)), "B"},
		"written_bytes_per_record": {ratio(float64(m.writtenBytes), float64(m.ackedRecords)), "B"},
		"heap_bytes_per_record":    {ratio(m.heapBytes, float64(m.dbRecords)), "B"},
	}
}

// usualNames maps each workload's figures, under the names people use
// for them, to the workload-neutral end-to-end metric that carries them.
var usualNames = map[string]map[string]string{
	"ingest": {
		"ingest_rec_per_s":         "throughput_per_s",
		"ack_p50_ms":               "latency_p50_ms",
		"ack_p99_ms":               "latency_tail_ms",
		"stored_bytes_per_record":  "stored_bytes_per_record",
		"written_bytes_per_record": "written_bytes_per_record",
	},
	"query": {
		"query_per_s":  "throughput_per_s",
		"query_p50_ms": "latency_p50_ms",
		"query_p99_ms": "latency_tail_ms",
	},
	"restart": {
		"restart_p50_ms": "latency_p50_ms",
		"restart_p90_ms": "latency_tail_ms",
	},
}

// named is the workload's figures under their usual names, printed
// beside the result for people.
func (b *bench) named(m *measurement) map[string]metric {
	e := b.endToEnd(m)
	out := map[string]metric{
		"setup_s":               e["setup_s"],
		"heap_bytes_per_record": e["heap_bytes_per_record"],
		"error_ratio":           {ratio(float64(m.failed), float64(m.attempted)), "ratio"},
	}
	for name, from := range usualNames[b.cfg.workload] {
		out[name] = e[from]
	}
	if b.cfg.workload == "query" {
		acks, _, _ := split(b.acks)
		out["ack_p50_ms"] = metric{median(acks), "ms"} // the paced writer's
	}
	return out
}

// perLayer is the traced run's report, derived from the spans around
// each wrapped call plus the counters, STATS and runtime/metrics. Times
// come from spans, which exist only while tracing was on; counts come
// from counters over the whole window and its teardown.
func (b *bench) perLayer(m *measurement) map[string]metric {
	spans := b.tr.snapshot()
	all := make(map[string][]span)
	win := make(map[string][]span) // spans that started in the window or its teardown
	for _, s := range spans {
		all[s.Name] = append(all[s.Name], s)
		if s.Start >= m.windowStartNs {
			win[s.Name] = append(win[s.Name], s)
		}
	}
	durs := func(ss []span) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = ms(s.dur())
		}
		return out
	}
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	var sumN float64
	for _, s := range win[spanAppend] {
		sumN += float64(s.N)
	}
	dc := func(f func(counterSnap) int64) float64 { return float64(f(m.c)) }

	_, acksOn, _ := split(b.acks)
	_, queriesOn, _ := split(b.queries)
	_, opsOn, opsOff := split(b.ops)
	appendMS, syncMS := sum(durs(win[spanAppend])), sum(durs(win[spanSync]))
	execs := durs(all[spanExec])

	// Boot reads: vfs reads whose causing chain reaches a boot span.
	parent := make(map[int64]span, len(spans))
	for _, s := range spans {
		parent[s.ID] = s
	}
	underBoot := func(s span) bool {
		for p := s.Parent; p != 0; p = parent[p].Parent {
			if parent[p].Name == spanBoot {
				return true
			}
		}
		return false
	}
	var bootReads float64
	for _, s := range all[spanRead] {
		if underBoot(s) {
			bootReads += float64(s.N)
		}
	}

	// Drains of the windows proper (not the checks' or teardowns').
	var drains []span
	for _, s := range win[spanDrain] {
		if m.inWindow(s.Start) {
			drains = append(drains, s)
		}
	}
	var drainRecs float64
	for _, s := range drains {
		drainRecs += float64(s.N)
	}

	hits, misses := statDelta(m, func(s *passd.Stats) int64 { return s.CacheHits }), statDelta(m, func(s *passd.Stats) int64 { return s.CacheMisses })

	out := map[string]metric{
		"passd.ack_self_ms":            {mean(acksOn) - ratio(appendMS+syncMS, float64(len(win[spanSync]))), "ms"},
		"passd.staged_per_disclosed":   {ratio(float64(statDelta(m, func(s *passd.Stats) int64 { return s.Appends })), float64(m.disclosed)), "ratio"},
		"passd.cache_hit_ratio":        {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"passd.query_self_ms":          {median(queriesOn) - median(execs), "ms"},
		"passd.refused":                {float64(m.failed), "count"},
		"provlog.append_us_per_record": {ratio(appendMS*1e3, sumN), "us"},
		"provlog.sync_ms_p50":          {median(durs(win[spanSync])), "ms"},
		"provlog.sync_ms_p99":          {percentile(durs(win[spanSync]), 0.99), "ms"},
		"provlog.records_per_sync":     {ratio(dc(func(c counterSnap) int64 { return c.appended }), dc(func(c counterSnap) int64 { return c.syncs })), "count"},
		"provlog.bytes_per_record":     {ratio(float64(m.logBytes), float64(m.logRecords)), "B"},
		"vfs.log_writes_per_record":    {ratio(dc(func(c counterSnap) int64 { return c.logWrites }), dc(func(c counterSnap) int64 { return c.appended })), "count"},
		"vfs.fsync_ms_p50":             {median(durs(win[spanFsync])), "ms"},
		"vfs.ckpt_bytes_written":       {dc(func(c counterSnap) int64 { return c.ckptWriteBytes }), "B"},
		"vfs.read_bytes_per_boot":      {ratio(bootReads, float64(len(all[spanBoot]))), "B"},
		"vfs.raw_fsync_ms_p50":         {b.rawFsyncMS, "ms"},
		"mmr.leaves_per_record":        {ratio(float64(m.mmrLeaves), float64(m.logRecords)), "ratio"},
		"mmr.prove_ms":                 {mean(durs(win[spanProve])), "ms"},
		"mmr.load_ms":                  {mean(durs(all[spanMMRLoad])), "ms"},
		"mmr.root_check_ms":            {mean(durs(all[spanRootCheck])), "ms"},
		"waldo.drain_ms_p50":           {median(durs(drains)), "ms"},
		"waldo.drain_ms_p99":           {percentile(durs(drains), 0.99), "ms"},
		"waldo.apply_rec_per_s":        {ratio(drainRecs, sum(durs(drains))/1e3), "1/s"},
		"waldo.busy_share":             {ratio(sum(durs(drains))/1e3, m.onSecs), "ratio"},
		"waldo.tail_drain_ms":          {mean(durs(all[spanTailDrain])), "ms"},
		"kvdb.keys":                    {float64(m.tree.Keys), "count"},
		"kvdb.nodes":                   {float64(m.tree.Nodes), "count"},
		"kvdb.depth":                   {float64(m.tree.Depth), "count"},
		"kvdb.heap_bytes_per_key":      {ratio(m.heapBytes, float64(m.tree.Keys)), "B"},
		"checkpoint.writes":            {dc(func(c counterSnap) int64 { return c.ckptCommits }), "count"},
		"checkpoint.delta_share":       {ratio(dc(func(c counterSnap) int64 { return c.ckptDeltas }), dc(func(c counterSnap) int64 { return c.ckptCommits })), "ratio"},
		"checkpoint.bytes_per_record":  {ratio(dc(func(c counterSnap) int64 { return c.ckptWriteBytes }), float64(m.ackedRecords)), "B"},
		"checkpoint.load_ms":           {mean(durs(all[spanCkptLoad])), "ms"},
		"checkpoint.chain_len":         {float64(m.chainLen), "count"},
		"pql.plan_us_p50":              {median(durs(all[spanPlan])) * 1e3, "us"},
		"pql.exec_ms_p50":              {median(execs), "ms"},
		"pql.exec_ms_p99":              {percentile(execs, 0.99), "ms"},
		"pql.rows_per_query":           {mean(m.localRows), "count"},
		"runtime.gc_cpu_share":         {ratio(m.rt.gcCPU, m.rt.totalCPU), "ratio"},
		"runtime.alloc_bytes_per_op":   {ratio(m.rt.allocBytes, float64(len(b.ops))), "B"},
		"trace.overhead_share":         {ratio(median(opsOn)-median(opsOff), median(opsOff)), "ratio"},
		"trace.residual_share":         {b.residual(m, win, acksOn, appendMS+syncMS), "ratio"},
	}
	return out
}

// inWindow reports whether tracer time ns falls inside one of m's windows.
func (m *measurement) inWindow(ns int64) bool {
	for _, w := range m.windows {
		if ns >= w[0] && ns < w[1] {
			return true
		}
	}
	return false
}

// statDelta is a STATS counter's change over the window (the whole life
// of the last daemon when the workload has no window-start STATS; ingest
// keeps the sum of its rounds' changes in stats).
func statDelta(m *measurement, f func(*passd.Stats) int64) int64 {
	if m.stats == nil {
		return 0
	}
	if m.stats0 == nil {
		return f(m.stats)
	}
	return f(m.stats) - f(m.stats0)
}

// residual is the share of the traced operations' time that no layer
// span covers. Ingest: ack time outside the Append and Sync callbacks.
// Query: query time beyond a local plan and execute of the same text.
// Restart: boot time outside the boot's own step spans.
func (b *bench) residual(m *measurement, win map[string][]span, acksOn []float64, covered float64) float64 {
	switch b.cfg.workload {
	case "ingest":
		total := mean(acksOn) * float64(len(acksOn))
		return ratio(total-covered, total)
	case "query":
		var total, local float64
		for _, s := range b.ops {
			if s.traced {
				total += s.ms
				local += m.localMS[s.text]
			}
		}
		return ratio(total-local, total)
	default:
		child := make(map[int64]float64)
		for _, ss := range win {
			for _, s := range ss {
				if s.Parent != 0 {
					child[s.Parent] += ms(s.dur())
				}
			}
		}
		var total, self float64
		for _, s := range win[spanBoot] {
			total += ms(s.dur())
			self += ms(s.dur()) - child[s.ID]
		}
		return ratio(self, total)
	}
}
