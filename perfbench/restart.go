package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"passv2/internal/graph"
	"passv2/internal/pnode"
	"passv2/internal/provlog"
	"passv2/internal/record"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// Restart workload sizes.
const (
	restartBuilds = 6 // build-shaped DAG: 11.4k records
	restartParts  = 5 // one full generation, three deltas, one uncovered tail
	restartAcks   = 8 // records disclosed after each boot
)

// restartTemplate is the directory every boot starts from, and what a
// from-zero re-ingest of its log gives.
type restartTemplate struct {
	dir       string
	chain     int      // generations the newest checkpoint composes
	dbSum     [32]byte // digest of the re-ingested database's snapshot
	records   int64
	firstQ    string
	firstWant uint64 // digest of firstQ's answer on the re-ingested database
}

// restart boots the daemon again and again from byte-identical copies of
// one directory that holds a full+delta checkpoint chain and a log tail
// no checkpoint covers. Each boot is timed to its first correct answer,
// and must skip no generation and recover exactly the database a
// from-zero re-ingest of the same log gives.
func (b *bench) restart() (*measurement, error) {
	d := buildDAG(b.cfg.seed, restartBuilds)
	var parts [][]record.Record
	for i := 0; i < restartParts; i++ {
		parts = append(parts, d.recs[i*len(d.recs)/restartParts:(i+1)*len(d.recs)/restartParts])
	}
	// The newest image's edges sit in the tail, so the first answer
	// depends on the tail replay.
	firstQ := fmt.Sprintf(`select A from Provenance.file as F F.input* as A where F.name = %q`, d.images[len(d.images)-1])

	m := &measurement{tailQ: 0.90, opBusy: true, localMS: make(map[int]float64)}
	var tmpl *restartTemplate
	setupSecs, err := b.repeatSetup(func(last bool) error {
		var err error
		if tmpl, err = b.restartTemplate(parts, firstQ, m); err != nil {
			return err
		}
		if err := b.calibrate(); err != nil {
			return err
		}
		// One boot before measuring; the kept set-up measures the live heap
		// with a booted daemon.
		return b.cycle(tmpl, 0, m, last)
	}, func() error { return os.RemoveAll(tmpl.dir) })
	if err != nil {
		return nil, err
	}
	m.setupSecs = setupSecs
	b.ops, b.acks, b.queries = nil, nil, nil

	w := b.openWindow(m, b.cfg.seconds)
	for k := 0; w.more(k, b.cfg.ops); k++ {
		if err = b.cycle(tmpl, k+1, m, false); err != nil {
			break
		}
	}
	w.close(m)
	if err != nil {
		return nil, err
	}
	for _, s := range b.ops {
		m.busySecs += s.ms / 1e3
	}
	m.opUnits = float64(len(b.ops))
	m.ackedRecords = int64(len(b.acks) * restartAcks)
	m.disclosed = restartAcks // STATS come from the last boot alone
	m.chainLen = tmpl.chain
	if err := b.finish(m, tmpl.dir); err != nil {
		return nil, err
	}
	m.dbRecords = tmpl.records
	return m, nil
}

// restartTemplate builds the template directory and its reference: the
// database and first answer a from-zero re-ingest of its log gives. With
// -inject corrupt-restart one byte of the newest delta generation is
// flipped, so that every boot must skip it.
func (b *bench) restartTemplate(parts [][]record.Record, firstQ string, m *measurement) (*restartTemplate, error) {
	t := &restartTemplate{dir: b.newDir("template"), chain: restartParts - 1, firstQ: firstQ}
	if err := b.buildDir(t.dir, parts[:restartParts-1], parts[restartParts-1]); err != nil {
		return nil, err
	}
	logFS, err := vfs.NewDirFS(filepath.Join(t.dir, logSubdir))
	if err != nil {
		return nil, err
	}
	writer, err := provlog.NewWriter(logFS, "/", 0)
	if err != nil {
		return nil, err
	}
	w := waldo.New()
	w.Attach(waldo.NewLogVolume(logVolume, logFS, writer))
	if err := w.Drain(); err != nil {
		return nil, err
	}
	h := sha256.New()
	if err := w.DB.Save(h); err != nil {
		return nil, err
	}
	copy(t.dbSum[:], h.Sum(nil))
	t.records, _, _ = w.DB.Stats()
	if t.firstWant, err = b.local(graph.New(w.DB.ReadView()), firstQ, 0, m); err != nil {
		return nil, err
	}
	if b.cfg.inject == "corrupt-restart" {
		if err := flipNewestDelta(filepath.Join(t.dir, ckptSubdir)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// cycle is one restart: copy the template, boot it to its first correct
// answer (the timed part), check what it recovered, disclose a few
// records with a durable ack, and shut down. k numbers the boot; heap
// asks for the daemon's heap to be measured at the shutdown.
func (b *bench) cycle(t *restartTemplate, k int, m *measurement, heap bool) error {
	dir := b.newDir("boot")
	defer os.RemoveAll(dir)
	if err := copyDir(t.dir, dir); err != nil {
		return err
	}
	b.attempted.Add(1)
	id, start := b.tr.begin()
	t0 := time.Now()
	n, err := bootNode(dir, &b.c, b.tr, id)
	if err != nil {
		return err
	}
	// The deferred closes go through n and c, so that daemonHeap can drop
	// them.
	defer func() {
		if n != nil {
			n.close()
		}
	}()
	c, err := dial(n)
	if err != nil {
		return err
	}
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	var got uint64
	tq := time.Now()
	err = b.tr.within(id, spanFirstQuery, func() error {
		res, err := c.Query(t.firstQ)
		if err == nil {
			got = digest(res)
		}
		return err
	})
	lat := ms(time.Since(t0))
	b.tr.finish(id, 0, spanBoot, "", 0, start)
	if err != nil {
		return err
	}
	if got != t.firstWant {
		return fmt.Errorf("boot %d: first answer differs from the from-zero re-ingest", k)
	}
	b.record(&b.ops, sample{ms: lat, traced: id != 0, at: time.Since(m.start).Seconds(), units: 1})
	b.record(&b.queries, sample{ms: ms(time.Since(tq)), traced: id != 0})

	if len(n.rec.Skipped) != 0 {
		return fmt.Errorf("boot %d skipped generation %d: %s", k, n.rec.Skipped[0].Gen, n.rec.Skipped[0].Reason)
	}
	if len(n.rec.Chain) != t.chain {
		return fmt.Errorf("boot %d composed %d generations, want %d", k, len(n.rec.Chain), t.chain)
	}
	h := sha256.New()
	if err := n.w.DB.Save(h); err != nil {
		return err
	}
	if !bytes.Equal(h.Sum(nil), t.dbSum[:]) {
		return fmt.Errorf("boot %d: recovered database differs from the from-zero re-ingest", k)
	}
	if leaves := n.writer.MMR().Count(); leaves != uint64(t.records) {
		return fmt.Errorf("boot %d: MMR has %d leaves for %d logged records", k, leaves, t.records)
	}
	m.mmrLeaves = n.writer.MMR().Count()
	if local, err := b.local(graph.New(n.w.DB.ReadView()), t.firstQ, k, m); err != nil {
		return err
	} else if local != t.firstWant {
		return fmt.Errorf("boot %d: local answer on the recovered database differs from the re-ingest", k)
	}

	// A durable write after the boot: the resumed MMR must extend.
	var recs []record.Record
	for i := 0; i < restartAcks; i++ {
		ref := pnode.Ref{PNode: pnode.PNode(0x0003<<48 | uint64(k*restartAcks+i+1)), Version: 1}
		recs = append(recs, record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/boot/%d/%d", k, i))))
	}
	bt := c.NewBatch()
	if err := bt.Append(recs); err != nil {
		return err
	}
	b.attempted.Add(1)
	aid, astart := b.tr.begin()
	t1 := time.Now()
	err = bt.Flush()
	b.tr.finish(aid, 0, spanAck, "", restartAcks, astart)
	if err != nil {
		return fmt.Errorf("boot %d: write after restart: %w", k, err)
	}
	b.record(&b.acks, sample{ms: ms(time.Since(t1)), traced: aid != 0})
	if stats, err := c.Stats(); err == nil {
		m.stats = stats
	} else {
		return err
	}
	if !heap {
		c.Close()
		return n.close()
	}
	m.tree = n.w.DB.TreeStats()
	m.heapBytes, err = daemonHeap(func() error {
		c.Close()
		err := n.close()
		c, n = nil, nil
		return err
	})
	return err
}

// flipNewestDelta corrupts one byte in the middle of the newest delta
// payload of a checkpoint directory.
func flipNewestDelta(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var deltas []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".delta") {
			deltas = append(deltas, e.Name())
		}
	}
	if len(deltas) == 0 {
		return errors.New("no delta generation to corrupt")
	}
	sort.Strings(deltas)
	path := filepath.Join(dir, deltas[len(deltas)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x40
	return os.WriteFile(path, data, 0o644)
}
