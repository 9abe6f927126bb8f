package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Each names one public call (or callback) the benchmark
// wraps; the layer is the prefix before the dot.
const (
	spanAck        = "op.ack"           // one pipelined batch, client side, to its durable ack
	spanQuery      = "op.query"         // one remote query, client side
	spanBoot       = "op.boot"          // one daemon boot, up to its first correct answer
	spanAppend     = "passd.append"     // Config.Append callback (N = records)
	spanSync       = "provlog.sync"     // Config.Sync callback
	spanServe      = "passd.serve"      // passd.Serve
	spanWrite      = "vfs.write"        // File.WriteAt through the counting FS (N = bytes)
	spanRead       = "vfs.read"         // File.ReadAt through the counting FS (N = bytes)
	spanFsync      = "vfs.fsync"        // File.Sync or FS.Sync through the counting FS
	spanDrain      = "waldo.drain"      // Waldo.Drain from the periodic loop or shutdown (N = records applied)
	spanTailDrain  = "waldo.tail_drain" // Waldo.Drain during boot
	spanRestore    = "waldo.restore"    // Waldo.RestoreVolumes
	spanProve      = "mmr.prove"        // Store.MakeProofs: SyncTamper plus signing
	spanRootCheck  = "mmr.root_check"   // Store.VerifyProofs
	spanMMRLoad    = "mmr.load"         // provlog.LoadMMR
	spanMMRAttach  = "mmr.attach"       // Writer.AttachMMR
	spanCkptLoad   = "checkpoint.load"  // checkpoint.Store.Load
	spanPlan       = "pql.plan"         // pql.Parse plus pql.PlanQuery, local
	spanExec       = "pql.exec"         // Plan.ExecuteWith on a pinned view with a fresh memo (N = rows)
	spanFirstQuery = "passd.first_query"
)

// span is one recorded call: times are nanoseconds since the tracer's
// origin, Parent is the causing span (0 when the benchmark cannot know
// it), Class qualifies vfs spans ("log", "meta", "ckpt") and N carries a
// size (records, bytes or rows).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. When off, begin
// returns a zero id and finish records nothing, so an untraced run pays
// one atomic load per wrapped call.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	ids    atomic.Int64
	// parent is the span that causes vfs reads right now: the boot step or
	// the drain in progress. Both run one at a time.
	parent atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin starts a span: it returns the span's id (0 when tracing is off)
// and its start time.
func (t *tracer) begin() (int64, time.Time) {
	if !t.on.Load() {
		return 0, time.Time{}
	}
	return t.ids.Add(1), time.Now()
}

// finish records the span begun as id.
func (t *tracer) finish(id, parent int64, name, class string, n int64, start time.Time) {
	if id == 0 {
		return
	}
	end := time.Now()
	s := span{ID: id, Parent: parent, Name: name, Class: class,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), N: n}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// within runs fn inside a span, which is the causing span of the vfs
// reads fn makes, and returns fn's error.
func (t *tracer) within(parent int64, name string, fn func() error) error {
	id, start := t.begin()
	if id != 0 {
		prev := t.parent.Swap(id)
		defer t.parent.Store(prev)
	}
	err := fn()
	t.finish(id, parent, name, "", 0, start)
	return err
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeFile dumps every span as JSON, with the run's environment block.
func (t *tracer) writeFile(path string, env map[string]any) error {
	b, err := json.Marshal(map[string]any{"env": env, "spans": t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or
// 0 for an empty sample. It sorts a copy.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
