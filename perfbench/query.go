package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"passv2/internal/graph"
	"passv2/internal/passd"
	"passv2/internal/pnode"
	"passv2/internal/pql"
	"passv2/internal/record"
	"passv2/internal/waldo"
)

// Query workload sizes.
const (
	queryBuilds    = 38   // build-shaped DAG: 72k records over 8.1k nodes
	queryTexts     = 4096 // distinct query texts, 4x the per-snapshot result cache
	queryClients   = 2    // closed-loop queriers, one connection each
	writerObjects  = 16   // the paced writer's phantom objects
	writerPerBatch = 4
	writerPeriod   = 20 * time.Millisecond // open-loop schedule of the writer's batches
)

// query runs closed-loop ancestry queries over a large pre-built DAG
// while a paced open-loop writer discloses small batches into objects
// disjoint from every queried one, so that results stay stable while the
// generation moves.
func (b *bench) query() (*measurement, error) {
	d := buildDAG(b.cfg.seed, queryBuilds)
	pool := d.queryPool(b.cfg.seed, queryTexts)
	// The writer's first versions depend on pnodes outside the DAG, so no
	// descendant query ever reaches the writer's objects.
	var outside []pnode.Ref
	for i := 1; i <= 64; i++ {
		outside = append(outside, pnode.Ref{PNode: pnode.PNode(0x0002<<48 | i), Version: 1})
	}
	var (
		n       *node
		dir     string
		clients []*passd.Client
		wobjs   []*passd.RemoteObject
	)
	teardown := func() error {
		for _, c := range clients {
			c.Close()
		}
		clients, wobjs = nil, nil
		return n.close()
	}
	setupSecs, err := b.repeatSetup(func(bool) error {
		dir = b.newDir("query")
		if err := b.buildDir(dir, [][]record.Record{d.recs}, nil); err != nil {
			return err
		}
		var err error
		if n, err = b.boot(dir); err != nil {
			return err
		}
		for i := 0; i < queryClients; i++ {
			c, err := dial(n)
			if err != nil {
				return err
			}
			clients = append(clients, c)
		}
		for i := 0; i < writerObjects; i++ {
			obj, err := clients[0].PassMkobj()
			if err != nil {
				return err
			}
			wobjs = append(wobjs, obj.(*passd.RemoteObject))
		}
		return b.calibrate()
	}, teardown)
	if err != nil {
		if n != nil {
			teardown()
		}
		return nil, err
	}
	m, err := b.queryWindow(clients, wobjs, pool, outside)
	if err == nil {
		m.setupSecs = setupSecs
		err = b.queryCheck(n, clients[0], m, pool)
	}
	if err == nil {
		err = b.settle(n, clients[0], m, pool)
	}
	if err != nil {
		teardown()
		return nil, err
	}
	m.observe(n)
	if m.heapBytes, err = daemonHeap(func() error {
		err := teardown()
		n = nil
		return err
	}); err != nil {
		return nil, err
	}
	if err := b.finish(m, dir); err != nil {
		return nil, err
	}
	return m, nil
}

// remoteResults remembers the digest of each query text's first remote
// answer; every later answer must match it.
type remoteResults struct {
	mu      sync.Mutex
	byText  map[int]uint64
	differs []int
}

func (r *remoteResults) add(text int, d uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byText[text]; ok && prev != d {
		r.differs = append(r.differs, text)
	} else if !ok {
		r.byText[text] = d
	}
}

func (b *bench) queryWindow(clients []*passd.Client, wobjs []*passd.RemoteObject, pool []string, outside []pnode.Ref) (*measurement, error) {
	m := &measurement{tailQ: 0.99}
	var err error
	if m.stats0, err = clients[0].Stats(); err != nil {
		return nil, err
	}
	results := &remoteResults{byText: make(map[int]uint64)}
	w := b.openWindow(m, b.cfg.seconds)
	errs := make([]error, len(clients)+1)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.cfg.seed*31 + int64(i)))
			for k := 0; w.more(k, b.cfg.ops/len(clients)); k++ {
				text := rng.Intn(len(pool))
				b.attempted.Add(1)
				id, start := b.tr.begin()
				t0 := time.Now()
				res, err := c.Query(pool[text])
				lat := ms(time.Since(t0))
				b.tr.finish(id, 0, spanQuery, "", int64(text), start)
				if refused(err) {
					b.failed.Add(1)
					continue
				}
				if err != nil {
					errs[i] = fmt.Errorf("query %q: %w", pool[text], err)
					w.stopped.Store(true)
					return
				}
				results.add(text, digest(res))
				s := sample{ms: lat, traced: id != 0, text: text, at: time.Since(w.start).Seconds(), units: 1}
				b.record(&b.ops, s)
				b.record(&b.queries, s)
			}
		}()
	}
	var written int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		written, err = b.pacedWriter(w, clients[0], wobjs, outside)
		if err != nil {
			errs[len(clients)] = err
			w.stopped.Store(true)
		}
	}()
	wg.Wait()
	m.busySecs = w.close(m)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(results.differs) > 0 {
		return nil, fmt.Errorf("remote answers to %q changed while the writer ran", pool[results.differs[0]])
	}
	m.opUnits = float64(len(b.ops))
	m.ackedRecords, m.disclosed = written, written
	m.remote = results.byText
	return m, nil
}

// pacedWriter discloses one small batch every writerPeriod, on schedule
// whatever the previous batch took, and times each ack from the moment
// its batch was due. It returns the records acked.
func (b *bench) pacedWriter(w *window, c *passd.Client, objs []*passd.RemoteObject, roots []pnode.Ref) (int64, error) {
	sess := &session{id: 2, objects: len(objs), perOp: writerPerBatch, roots: roots}
	refs := make([]pnode.Ref, len(objs))
	quota := max(1, b.cfg.ops/50)
	var acked int64
	for k := 0; w.more(k, quota); k++ {
		due := w.start.Add(time.Duration(k) * writerPeriod)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		for i, o := range objs {
			refs[i] = o.Ref()
		}
		discl, freeze := sess.batch(k, refs)
		bt := c.NewBatch()
		var n int64
		for _, d := range discl {
			if err := bt.Disclose(objs[d.obj], d.recs...); err != nil {
				return acked, err
			}
			if freeze {
				if err := bt.Freeze(objs[d.obj]); err != nil {
					return acked, err
				}
			}
			n += int64(len(d.recs))
		}
		b.attempted.Add(1)
		id, start := b.tr.begin()
		err := bt.Flush()
		b.tr.finish(id, 0, spanAck, "", n, start)
		if refused(err) {
			b.failed.Add(1)
			k--
			continue
		}
		if err != nil {
			return acked, fmt.Errorf("writer batch %d: %w", k, err)
		}
		b.record(&b.acks, sample{ms: ms(time.Since(due)), traced: id != 0})
		acked += n
	}
	return acked, nil
}

// queryCheck compares the remote answer to every distinct query text of
// the window with local evaluation on a view pinned after a final drain.
// The writer never touches a queried object, so every generation of the
// window has the same answers as this view.
func (b *bench) queryCheck(n *node, c *passd.Client, m *measurement, pool []string) error {
	if err := n.drain(); err != nil {
		return err
	}
	var err error
	if m.stats, err = c.Stats(); err != nil {
		return err
	}
	g := graph.New(n.w.DB.ReadView())
	texts := make([]int, 0, len(m.remote))
	for t := range m.remote {
		texts = append(texts, t)
	}
	sort.Ints(texts)
	m.localMS = make(map[int]float64, len(texts))
	for _, t := range texts {
		want, err := b.local(g, pool[t], t, m)
		if err != nil {
			return err
		}
		if m.remote[t] != want {
			return fmt.Errorf("remote answer to %q differs from local evaluation", pool[t])
		}
	}
	return nil
}

// settle puts the daemon in the same state in every run before its heap
// is read. The server keeps the last snapshot bundle it built (a pinned
// view, its traversal memo, up to 1 024 cached results) until a query
// finds the generation moved; whether the window's last bundle is still
// current depends on when the last periodic drain ran. One more durable
// write, a drain and one checked query replace it with a fresh bundle
// holding one result, so the heap figure does not depend on that timing.
func (b *bench) settle(n *node, c *passd.Client, m *measurement, pool []string) error {
	ref := pnode.Ref{PNode: pnode.PNode(0x0004<<48 | 1), Version: 1}
	bt := c.NewBatch()
	if err := bt.Append([]record.Record{record.New(ref, record.AttrName, record.StringVal("/settle"))}); err != nil {
		return err
	}
	if err := bt.Flush(); err != nil {
		return err
	}
	if err := n.drain(); err != nil {
		return err
	}
	text := len(pool)
	for t := range m.remote {
		text = min(text, t)
	}
	if text == len(pool) {
		text = 0
	}
	res, err := c.Query(pool[text])
	if err != nil {
		return err
	}
	if want, ok := m.remote[text]; ok && digest(res) != want {
		return fmt.Errorf("remote answer to %q changed after the window", pool[text])
	}
	return nil
}

// remoteEqualsLocal runs each text remotely (timed as a remote query)
// and locally on view, and fails on any difference.
func (b *bench) remoteEqualsLocal(c *passd.Client, view *waldo.ReadView, texts []string, m *measurement) error {
	g := graph.New(view)
	if m.localMS == nil {
		m.localMS = make(map[int]float64)
	}
	for i, q := range texts {
		id, start := b.tr.begin()
		t0 := time.Now()
		res, err := c.Query(q)
		lat := ms(time.Since(t0))
		b.tr.finish(id, 0, spanQuery, "", 0, start)
		if err != nil {
			return fmt.Errorf("query %q: %w", q, err)
		}
		b.record(&b.queries, sample{ms: lat, traced: id != 0, text: i})
		want, err := b.local(g, q, i, m)
		if err != nil {
			return err
		}
		if digest(res) != want {
			return fmt.Errorf("remote answer to %q differs from local evaluation", q)
		}
	}
	return nil
}

// local evaluates text on g with a fresh plan and a fresh memo, records
// its plan and execute times, and returns the result's digest. With
// -inject wrong-expected the run's first expected result is altered, so
// that its comparison must fail.
func (b *bench) local(g *graph.Graph, text string, idx int, m *measurement) (uint64, error) {
	id, start := b.tr.begin()
	t0 := time.Now()
	q, err := pql.Parse(text)
	if err != nil {
		return 0, err
	}
	plan := pql.PlanQuery(q)
	b.tr.finish(id, 0, spanPlan, "", int64(idx), start)
	id, start = b.tr.begin()
	res, err := plan.ExecuteWith(context.Background(), g, nil)
	if err != nil {
		return 0, err
	}
	b.tr.finish(id, 0, spanExec, "", int64(len(res.Rows)), start)
	m.localMS[idx] = ms(time.Since(t0))
	m.localRows = append(m.localRows, float64(len(res.Rows)))
	if b.cfg.inject == "wrong-expected" && !b.injected {
		b.injected = true
		res.Rows = append(res.Rows, []pql.Value{{Kind: pql.ValString, Str: "not in the database"}})
	}
	return digest(res), nil
}
