package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"passv2/internal/kvdb"
	"passv2/internal/passd"
	"passv2/internal/pql"
	"passv2/internal/provlog"
	"passv2/internal/record"
	"passv2/internal/vfs"
)

// bench is the state one run shares across its set-up, its window and
// its checks.
type bench struct {
	cfg  config
	work string
	tr   *tracer
	c    counters
	dirs atomic.Int64

	rawFsyncMS float64
	injected   bool // the wrong-expected fault has been applied

	mu        sync.Mutex
	ops       []sample // the workload's operation
	acks      []sample // every durable ack of a pipelined batch
	queries   []sample // every remote query, checks included
	attempted atomic.Int64
	failed    atomic.Int64
}

// sample is one timed operation; traced says whether tracing was on
// when it started (tracing alternates during a traced run's window).
type sample struct {
	ms     float64
	traced bool
	text   int     // query text index, for the query workload
	at     float64 // completion, in seconds since the window opened
	units  float64 // work it completed: records acked, or 1
}

// measurement is what a workload hands to endToEnd, named and perLayer.
type measurement struct {
	setupSecs  []float64
	tailQ      float64 // the tail percentile the op latency reports (0.99 or 0.90)
	opUnits    float64 // work done in the window: records acked, queries, boots
	busySecs   float64 // seconds the clients spent doing it
	windowSecs float64 // length of the window
	opBusy     bool    // busy time is the operations' own time (restart), not the window's
	meanRate   bool    // throughput is the work over the summed window time (ingest's rounds)
	attempted  int64
	failed     int64

	dbRecords    int64 // records in the database at the end
	ackedRecords int64 // records clients disclosed and had acked in the window
	storedBytes  int64 // log, checkpoint and MMR bytes on disk at the end
	writtenBytes int64 // bytes written in the window and teardown
	heapBytes    float64

	// Per-layer inputs.
	start         time.Time  // the first window's opening; sample.at counts from it
	windowStartNs int64      // tracer clock; spans at or after it belong to the windows
	windows       [][2]int64 // tracer clock: [start, end) of each window
	onSecs        float64    // seconds of the windows that were traced
	stats0, stats *passd.Stats
	disclosed     int64       // records clients disclosed in the windows (acked or not)
	cOpen         counterSnap // counters when the latest window opened
	c             counterSnap // counters' growth over each window and the teardown after it
	rt            runtimeSnap // runtime/metrics' growth over the windows
	tree          kvdb.Stats
	logBytes      int64
	logRecords    int64
	mmrLeaves     uint64
	chainLen      int
	remote        map[int]uint64  // digest of the remote answer per query text
	localMS       map[int]float64 // local plan+exec ms per query text
	localRows     []float64
}

func newBench(cfg config, work string) *bench {
	return &bench{cfg: cfg, work: work, tr: newTracer()}
}

// newDir returns a fresh directory under the run's scratch directory.
func (b *bench) newDir(name string) string {
	return filepath.Join(b.work, fmt.Sprintf("%s-%d", name, b.dirs.Add(1)))
}

// setupRuns is how many times a timed run sets up; setup_s is the
// median. A fixed-count (-ops) run sets up once.
const setupRuns = 5

// repeatSetup runs setup setupRuns times (once in a fixed-count run) and
// keeps the last instance: every earlier one is torn down.
func (b *bench) repeatSetup(setup func(last bool) error, teardown func() error) ([]float64, error) {
	runs := setupRuns
	if b.cfg.ops > 0 {
		runs = 1
	}
	var secs []float64
	for i := 0; i < runs; i++ {
		last := i == runs-1
		b.tr.on.Store(b.cfg.trace && last)
		start := time.Now()
		if err := setup(last); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if !last {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
	}
	return secs, nil
}

// window runs a measured window: workers call more(k) before their
// k-th operation. In a traced run, tracing alternates on and off in ten
// slices so that the run can report its own tracing overhead; it is left
// on for the teardown that follows.
type window struct {
	b        *bench
	deadline time.Time
	start    time.Time
	startNs  int64
	stop     chan struct{}
	done     sync.WaitGroup
	onNs     atomic.Int64
	stopped  atomic.Bool
	rt0      runtimeSnap
}

// openWindow opens a window of secs for m, which may hold earlier ones.
func (b *bench) openWindow(m *measurement, secs float64) *window {
	m.cOpen = b.c.snap()
	w := &window{b: b, rt0: readRuntime(), start: time.Now(), stop: make(chan struct{})}
	w.startNs = int64(w.start.Sub(b.tr.origin))
	w.deadline = w.start.Add(time.Duration(secs * float64(time.Second)))
	if len(m.windows) == 0 {
		m.start, m.windowStartNs = w.start, w.startNs
	}
	if b.cfg.trace {
		w.done.Add(1)
		go w.alternate()
	}
	return w
}

func (w *window) alternate() {
	defer w.done.Done()
	slice := w.deadline.Sub(w.start) / 10
	if w.b.cfg.ops > 0 || slice <= 0 {
		slice = 100 * time.Millisecond
	}
	on := false
	last := time.Now()
	t := time.NewTicker(slice)
	defer t.Stop()
	for {
		w.b.tr.on.Store(on)
		select {
		case <-w.stop:
			if on {
				w.onNs.Add(int64(time.Since(last)))
			}
			w.b.tr.on.Store(true)
			return
		case <-t.C:
		}
		if on {
			w.onNs.Add(int64(time.Since(last)))
		}
		last = time.Now()
		on = !on
	}
}

// more reports whether a worker should start its k-th operation (k
// counts that worker's operations, from 0; quota is its fixed share).
func (w *window) more(k, quota int) bool {
	if w.stopped.Load() {
		return false
	}
	if w.b.cfg.ops > 0 {
		return k < quota
	}
	return time.Now().Before(w.deadline)
}

// close ends the window: it adds the window's span, length, traced
// seconds and runtime counters to m, and returns its length.
func (w *window) close(m *measurement) float64 {
	w.stopped.Store(true)
	secs := time.Since(w.start).Seconds()
	close(w.stop)
	w.done.Wait()
	m.windows = append(m.windows, [2]int64{w.startNs, int64(time.Since(w.b.tr.origin))})
	m.windowSecs += secs
	m.onSecs += float64(w.onNs.Load()) / 1e9
	m.rt = m.rt.plus(readRuntime().minus(w.rt0))
	return secs
}

// record appends a sample to *dst under the bench lock.
func (b *bench) record(dst *[]sample, s sample) {
	b.mu.Lock()
	*dst = append(*dst, s)
	b.mu.Unlock()
}

// refused reports whether err is a load refusal, which counts as a failed
// operation rather than ending the run.
func refused(err error) bool {
	return errors.Is(err, passd.ErrOverloaded) || errors.Is(err, passd.ErrQuotaExceeded)
}

// dial connects a client over protocol v3 with retries off, so that
// every refusal reaches the benchmark and is counted.
func dial(n *node) (*passd.Client, error) {
	return passd.DialOptions(n.srv.Addr(), passd.Options{MaxRetries: -1})
}

// buildDir fills dir through a daemon: each part is disclosed in
// pipelined batches (handle-less writes of already-analyzed records),
// drained and checkpointed, so the first part becomes a full generation
// and later parts delta generations. tail is then appended to the log
// the way a daemon that crashed before its next checkpoint leaves it:
// durable, covered by the MMR, but by no checkpoint. Tracing is off.
func (b *bench) buildDir(dir string, parts [][]record.Record, tail []record.Record) error {
	on := b.tr.on.Swap(false)
	defer b.tr.on.Store(on)
	var scratch counters
	n, err := bootNode(dir, &scratch, b.tr, 0)
	if err != nil {
		return err
	}
	c, err := dial(n)
	if err != nil {
		n.close()
		return err
	}
	err = func() error {
		for _, part := range parts {
			for lo := 0; lo < len(part); lo += 4096 {
				bt := c.NewBatch()
				if err := bt.Append(part[lo:min(lo+4096, len(part))]); err != nil {
					return err
				}
				if err := bt.Flush(); err != nil {
					return err
				}
			}
			if _, err := c.Drain(); err != nil {
				return err
			}
			if _, err := c.Checkpoint(); err != nil {
				return err
			}
		}
		return nil
	}()
	c.Close()
	if err = errors.Join(err, n.close()); err != nil || len(tail) == 0 {
		return err
	}

	logFS, err := vfs.NewDirFS(filepath.Join(dir, logSubdir))
	if err != nil {
		return err
	}
	m, err := provlog.LoadMMR(logFS, "/", logVolume)
	if err != nil {
		return err
	}
	w, err := provlog.NewWriter(logFS, "/", 0)
	if err != nil {
		return err
	}
	if err := w.AttachMMR(m, logVolume); err != nil {
		return err
	}
	for _, r := range tail {
		if err := w.AppendRecord(0, r); err != nil {
			return err
		}
	}
	return w.Sync()
}

// copyDir copies the regular files of src into a new dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes sums the sizes of the log segments, MMR peak file and
// checkpoint files under dir (signing keys excluded).
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "keys" {
				return filepath.SkipDir
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// logShape counts the log's bytes and record frames on disk.
func logShape(dir string) (bytes, recs int64, err error) {
	logFS, err := vfs.NewDirFS(filepath.Join(dir, logSubdir))
	if err != nil {
		return 0, 0, err
	}
	files, err := provlog.LogFiles(logFS, "/")
	if err != nil {
		return 0, 0, err
	}
	for _, f := range files {
		st, err := logFS.Stat(f)
		if err != nil {
			return 0, 0, err
		}
		bytes += st.Size
	}
	err = provlog.ScanAll(logFS, "/", func(e provlog.Entry) error {
		if e.Type == provlog.EntryRecord {
			recs++
		}
		return nil
	})
	return bytes, recs, err
}

// calibrate times the benchmark's own 4 KiB write plus fsync in the
// run's directory: a figure for the disk of the day, apart from the
// program.
func (b *bench) calibrate() error {
	f, err := os.Create(filepath.Join(b.work, "calibrate"))
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 4096)
	var lat []float64
	for i := 0; i < 64; i++ {
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			return err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return err
		}
		lat = append(lat, ms(time.Since(start)))
	}
	b.rawFsyncMS = median(lat)
	return nil
}

// liveHeap forces a collection and returns the live heap bytes. The
// second collection frees what the first only moved to sync.Pool's
// victim caches.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// daemonHeap returns the live heap the daemon and its client connections
// hold: the live heap with them up, less the live heap once shutdown has
// closed them and dropped every reference to them. What the benchmark
// itself holds (its inputs, query texts and samples) is live in both
// readings and cancels out.
func daemonHeap(shutdown func() error) (float64, error) {
	up := liveHeap()
	if err := shutdown(); err != nil {
		return 0, err
	}
	return up - liveHeap(), nil
}

// counterSnap is a copy of the counters at one instant.
type counterSnap struct {
	appended, syncs, logWrites, logWriteBytes, ckptWriteBytes int64
	ckptCommits, ckptDeltas, written                          int64
}

func (c *counters) snap() counterSnap {
	return counterSnap{
		appended: c.appended.Load(), syncs: c.syncs.Load(),
		logWrites: c.logWrites.Load(), logWriteBytes: c.logWriteBytes.Load(),
		ckptWriteBytes: c.ckptWriteBytes.Load(),
		ckptCommits:    c.ckptCommits.Load(), ckptDeltas: c.ckptDeltas.Load(),
		written: c.written(),
	}
}

func (s counterSnap) plus(o counterSnap) counterSnap {
	return counterSnap{
		appended: s.appended + o.appended, syncs: s.syncs + o.syncs,
		logWrites: s.logWrites + o.logWrites, logWriteBytes: s.logWriteBytes + o.logWriteBytes,
		ckptWriteBytes: s.ckptWriteBytes + o.ckptWriteBytes,
		ckptCommits:    s.ckptCommits + o.ckptCommits, ckptDeltas: s.ckptDeltas + o.ckptDeltas,
		written: s.written + o.written,
	}
}

func (s counterSnap) minus(o counterSnap) counterSnap {
	return s.plus(counterSnap{
		appended: -o.appended, syncs: -o.syncs,
		logWrites: -o.logWrites, logWriteBytes: -o.logWriteBytes,
		ckptWriteBytes: -o.ckptWriteBytes,
		ckptCommits:    -o.ckptCommits, ckptDeltas: -o.ckptDeltas,
		written: -o.written,
	})
}

// runtimeSnap is the runtime/metrics the per-layer report differences.
type runtimeSnap struct{ gcCPU, totalCPU, allocBytes float64 }

func (s runtimeSnap) plus(o runtimeSnap) runtimeSnap {
	return runtimeSnap{s.gcCPU + o.gcCPU, s.totalCPU + o.totalCPU, s.allocBytes + o.allocBytes}
}

func (s runtimeSnap) minus(o runtimeSnap) runtimeSnap {
	return s.plus(runtimeSnap{-o.gcCPU, -o.totalCPU, -o.allocBytes})
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return math.NaN()
	}
	return runtimeSnap{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), allocBytes: val(s[2].Value)}
}

// digest fingerprints a query result: columns and every cell, in order.
// Remote and local results are compared by digest.
func digest(r *pql.Result) uint64 {
	var buf []byte
	for _, c := range r.Columns {
		buf = append(append(buf, c...), 0)
	}
	for _, row := range r.Rows {
		for _, v := range row {
			buf = binary.AppendUvarint(buf, uint64(v.Kind))
			buf = binary.AppendUvarint(buf, uint64(v.Ref.PNode))
			buf = binary.AppendUvarint(buf, uint64(v.Ref.Version))
			buf = append(append(buf, v.Name...), 0)
			buf = append(append(buf, v.Str...), 0)
			buf = binary.AppendVarint(buf, v.Int)
			if v.Bool {
				buf = append(buf, 1)
			}
			buf = append(buf, 0xff)
		}
		buf = append(buf, '\n')
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}
