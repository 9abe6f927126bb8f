package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"passv2/internal/graph"
	"passv2/internal/passd"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/verify"
)

// Ingest workload sizes.
const (
	ingestBuilds    = 19 // base DAG the daemon recovers before each round: 36k records
	ingestSessions  = 2  // closed-loop DPAPI sessions, one connection each
	ingestObjects   = 64 // phantom objects per session
	ingestPerBatch  = 64 // objects disclosed per pipelined batch
	ingestQueryHits = 16 // remote-vs-local ancestry checks after each round
	ingestRoundSecs = 5  // target length of one round's window, in seconds
)

// ingestClient is one closed-loop DPAPI session.
type ingestClient struct {
	c     *passd.Client
	sess  *session
	objs  []*passd.RemoteObject
	acked []record.Record // every record the session disclosed and had acked
}

// ingest runs two closed-loop DPAPI sessions against a daemon that has
// recovered a base DAG: each session discloses its provenance DAG in
// pipelined batches with periodic freezes, one durable ack per batch.
//
// The window is split into rounds of about ingestRoundSecs, each against
// a daemon set up afresh from the base DAG and checked on its own. At
// ~90k records a second one daemon would grow thirtyfold over a long
// window, so its drains, checkpoints and collections would cost more as
// the window went on; rounds keep every stretch of the window alike and
// the heap bounded. setup_s is the median of the rounds' set-ups, and
// the database, heap and byte figures that need a quiesced daemon come
// from the last round.
func (b *bench) ingest() (*measurement, error) {
	base := buildDAG(b.cfg.seed, ingestBuilds)
	rounds := 1
	if b.cfg.ops == 0 {
		rounds = max(1, int(math.Round(b.cfg.seconds/ingestRoundSecs)))
	}
	if err := b.calibrate(); err != nil {
		return nil, err
	}
	m := &measurement{tailQ: 0.99, meanRate: true, stats: &passd.Stats{}}
	for r := 0; r < rounds; r++ {
		if err := b.ingestRound(base, r == rounds-1, b.cfg.seconds/float64(rounds), m); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
	}
	m.attempted, m.failed = b.attempted.Load(), b.failed.Load()
	return m, nil
}

// ingestRound sets up a daemon, runs the sessions against it for secs
// (or the run's fixed operation count), checks it, shuts it down and adds
// what it measured to m. Tracing covers the first round's set-up and
// every round's window, check and teardown; the last round also measures
// the daemon's heap.
func (b *bench) ingestRound(base *dag, last bool, secs float64, m *measurement) error {
	var (
		n       *node
		clients []*ingestClient
	)
	teardown := func() error {
		for _, ic := range clients {
			ic.c.Close()
		}
		clients = nil
		err := n.close()
		n = nil
		return err
	}
	b.tr.on.Store(b.cfg.trace && len(m.setupSecs) == 0)
	start := time.Now()
	dir := b.newDir("ingest")
	defer os.RemoveAll(dir)
	err := func() error {
		if err := b.buildDir(dir, [][]record.Record{base.recs}, nil); err != nil {
			return err
		}
		var err error
		if n, err = b.boot(dir); err != nil {
			return err
		}
		for s := 0; s < ingestSessions; s++ {
			c, err := dial(n)
			if err != nil {
				return err
			}
			ic := &ingestClient{c: c, sess: &session{id: s, objects: ingestObjects, perOp: ingestPerBatch, roots: base.roots}}
			clients = append(clients, ic)
			for i := 0; i < ingestObjects; i++ {
				obj, err := c.PassMkobj()
				if err != nil {
					return err
				}
				ic.objs = append(ic.objs, obj.(*passd.RemoteObject))
			}
		}
		return nil
	}()
	m.setupSecs = append(m.setupSecs, time.Since(start).Seconds())
	if err == nil {
		err = b.ingestWindow(n, clients, secs, m)
	}
	if err == nil {
		err = b.ingestCheck(n, clients, m)
	}
	if err != nil {
		if n != nil {
			teardown()
		}
		return err
	}
	for _, ic := range clients {
		ic.acked = nil
	}
	m.observe(n)
	logFS, ckptFS := n.logFS, n.ckptFS
	if last {
		m.heapBytes, err = daemonHeap(teardown)
	} else {
		err = teardown()
	}
	if err != nil {
		return err
	}
	if err := b.finish(m, dir); err != nil {
		return err
	}
	rep, err := verify.Audit(verify.Options{LogFS: logFS, CheckpointFS: ckptFS, Volume: logVolume})
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("verify.Audit over the log and checkpoints failed: %v", rep.Failures)
	}
	if rep.Records != uint64(m.logRecords) {
		return fmt.Errorf("audit replayed %d records, the log holds %d", rep.Records, m.logRecords)
	}
	return nil
}

// ingestWindow runs the sessions for one round's window of secs.
func (b *bench) ingestWindow(n *node, clients []*ingestClient, secs float64, m *measurement) error {
	stats0, err := clients[0].c.Stats()
	if err != nil {
		return err
	}
	m.stats.Appends -= stats0.Appends
	m.stats.CacheHits -= stats0.CacheHits
	m.stats.CacheMisses -= stats0.CacheMisses
	w := b.openWindow(m, secs)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, ic := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = b.ingestSession(w, ic, b.cfg.ops/len(clients))
			if errs[i] != nil {
				w.stopped.Store(true)
			}
		}()
	}
	wg.Wait()
	m.busySecs += w.close(m)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, ic := range clients {
		m.ackedRecords += int64(len(ic.acked))
		m.disclosed += int64(len(ic.acked))
		m.opUnits += float64(len(ic.acked))
	}
	return nil
}

// ingestSession is one closed loop: build batch k, flush it, wait for the
// durable ack, repeat.
func (b *bench) ingestSession(w *window, ic *ingestClient, quota int) error {
	refs := make([]pnode.Ref, len(ic.objs))
	for k := 0; w.more(k, quota); k++ {
		for i, o := range ic.objs {
			refs[i] = o.Ref()
		}
		discl, freeze := ic.sess.batch(k, refs)
		bt := ic.c.NewBatch()
		var recs []record.Record
		for _, d := range discl {
			if err := bt.Disclose(ic.objs[d.obj], d.recs...); err != nil {
				return err
			}
			if freeze {
				if err := bt.Freeze(ic.objs[d.obj]); err != nil {
					return err
				}
			}
			recs = append(recs, d.recs...)
		}
		b.attempted.Add(1)
		id, start := b.tr.begin()
		t0 := time.Now()
		err := bt.Flush()
		lat := ms(time.Since(t0))
		b.tr.finish(id, 0, spanAck, "", int64(len(recs)), start)
		if refused(err) {
			b.failed.Add(1)
			k-- // the batch was refused before it executed: send it again
			continue
		}
		if err != nil {
			return fmt.Errorf("session %d batch %d: %w", ic.sess.id, k, err)
		}
		s := sample{ms: lat, traced: id != 0, at: time.Since(w.start).Seconds(), units: float64(len(recs))}
		b.record(&b.ops, s)
		b.record(&b.acks, s)
		ic.acked = append(ic.acked, recs...)
	}
	return nil
}

// ingestCheck is the ingest workload's correctness check, after a final
// drain: the database holds every staged record and every record each
// session had acked, the MMR has one leaf per record frame of the log,
// and a sample of remote ancestry queries equals local evaluation.
func (b *bench) ingestCheck(n *node, clients []*ingestClient, m *measurement) error {
	if err := n.drain(); err != nil {
		return err
	}
	stats, err := clients[0].c.Stats()
	if err != nil {
		return err
	}
	m.stats.Appends += stats.Appends
	m.stats.CacheHits += stats.CacheHits
	m.stats.CacheMisses += stats.CacheMisses
	records, _, _ := n.w.DB.Stats()
	if want := n.bootRecords + stats.Appends; records != want {
		return fmt.Errorf("database holds %d records, want %d recovered + %d staged", records, n.bootRecords, stats.Appends)
	}
	if leaves := n.writer.MMR().Count(); leaves != uint64(records) {
		return fmt.Errorf("MMR has %d leaves for %d logged records", leaves, records)
	}
	view := n.w.DB.ReadView()
	g := graph.New(view)
	for _, ic := range clients {
		bySubject := make(map[pnode.Ref][]record.Record)
		for _, r := range ic.acked {
			bySubject[r.Subject] = append(bySubject[r.Subject], r)
		}
		for ref, want := range bySubject {
			have := g.Attrs(ref)
			for _, r := range want {
				if !containsRecord(have, r) {
					return fmt.Errorf("acked record %v is missing from the database", r)
				}
			}
		}
	}
	// Ancestry of an early version: the closure of a late version spans
	// most of the session's history, which would make the check cost more
	// than the window.
	var texts []string
	for _, ic := range clients {
		for i := 0; i < ingestObjects; i += ingestObjects / (ingestQueryHits / ingestSessions) {
			v := min(3, max(1, ic.objs[i].Ref().Version-1))
			texts = append(texts, fmt.Sprintf(`select A from Provenance.file as F F.input* as A where F.name = "/s%d/o%d" and F.version = %d`, ic.sess.id, i, v))
		}
	}
	return b.remoteEqualsLocal(clients[0].c, view, texts, m)
}

func containsRecord(have []record.Record, r record.Record) bool {
	for _, h := range have {
		if h.Equal(r) {
			return true
		}
	}
	return false
}
