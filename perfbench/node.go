package main

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"passv2/internal/checkpoint"
	"passv2/internal/mmr"
	"passv2/internal/passd"
	"passv2/internal/provlog"
	"passv2/internal/record"
	"passv2/internal/signer"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// The daemon's defaults, as cmd/passd sets them. The benchmark composes
// its daemon with exactly these so that it measures what an operator
// runs.
const (
	logVolume     = "logdir" // cmd/passd's volume name for -logdir
	drainInterval = 500 * time.Millisecond
	ckptInterval  = 30 * time.Second
	ckptRecords   = 50000
	ckptFullEvery = 8
	logSubdir     = "log"
	ckptSubdir    = "ckpt"
)

// counters totals what passes through the wrapped calls of every node
// of a run. File I/O is split by class: "log" (provenance log segments),
// "meta" (MMR peak file, signing keys) and "ckpt" (checkpoint store).
// Counters are kept with tracing off too: end-to-end byte counts need
// them, and an atomic add costs far less than the call it counts.
type counters struct {
	appended, syncs          atomic.Int64 // records through Config.Append; Config.Sync calls
	logWrites, logWriteBytes atomic.Int64
	metaWriteBytes           atomic.Int64
	ckptWriteBytes           atomic.Int64
	ckptCommits, ckptDeltas  atomic.Int64 // manifests and delta payloads published
}

func (c *counters) written() int64 {
	return c.logWriteBytes.Load() + c.metaWriteBytes.Load() + c.ckptWriteBytes.Load()
}

// countFS wraps a vfs.FS, counting writes and checkpoint publications
// and, when tracing, recording a span around every read, write and fsync.
type countFS struct {
	vfs.FS
	ckpt bool
	c    *counters
	tr   *tracer
}

func (f *countFS) class(path string) string {
	switch {
	case f.ckpt:
		return "ckpt"
	case strings.HasPrefix(vfs.Base(path), "log."):
		return "log"
	default:
		return "meta"
	}
}

func (f *countFS) Open(path string, flags vfs.Flags) (vfs.File, error) {
	inner, err := f.FS.Open(path, flags)
	if err != nil {
		return nil, err
	}
	return &countFile{File: inner, fs: f, class: f.class(path)}, nil
}

// Rename counts checkpoint publications: a payload or manifest becomes
// visible when it is renamed to its final name.
func (f *countFS) Rename(oldPath, newPath string) error {
	err := f.FS.Rename(oldPath, newPath)
	if err == nil && f.ckpt {
		switch {
		case strings.HasSuffix(newPath, ".meta"):
			f.c.ckptCommits.Add(1)
		case strings.HasSuffix(newPath, ".delta"):
			f.c.ckptDeltas.Add(1)
		}
	}
	return err
}

func (f *countFS) Sync() error {
	id, start := f.tr.begin()
	err := f.FS.Sync()
	f.tr.finish(id, 0, spanFsync, f.class("/"), 0, start)
	return err
}

type countFile struct {
	vfs.File
	fs    *countFS
	class string
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	id, start := f.fs.tr.begin()
	n, err := f.File.ReadAt(p, off)
	f.fs.tr.finish(id, f.fs.tr.parent.Load(), spanRead, f.class, int64(n), start)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	id, start := f.fs.tr.begin()
	n, err := f.File.WriteAt(p, off)
	switch f.class {
	case "log":
		f.fs.c.logWrites.Add(1)
		f.fs.c.logWriteBytes.Add(int64(n))
	case "meta":
		f.fs.c.metaWriteBytes.Add(int64(n))
	default:
		f.fs.c.ckptWriteBytes.Add(int64(n))
	}
	f.fs.tr.finish(id, 0, spanWrite, f.class, int64(n), start)
	return n, err
}

func (f *countFile) Sync() error {
	id, start := f.fs.tr.begin()
	err := f.File.Sync()
	f.fs.tr.finish(id, 0, spanFsync, f.class, 0, start)
	return err
}

// openFS opens dir/log and dir/ckpt behind counting wrappers.
func openFS(dir string, c *counters, tr *tracer) (logFS, ckptFS *countFS, err error) {
	l, err := vfs.NewDirFS(filepath.Join(dir, logSubdir))
	if err != nil {
		return nil, nil, err
	}
	k, err := vfs.NewDirFS(filepath.Join(dir, ckptSubdir))
	if err != nil {
		return nil, nil, err
	}
	return &countFS{FS: l, c: c, tr: tr}, &countFS{FS: k, ckpt: true, c: c, tr: tr}, nil
}

// node is one daemon composed as cmd/passd composes it by default: a
// provlog on a real directory with one fsync per ack, the MMR attached
// to the writer, an Ed25519 signer, a checkpoint store on the record
// trigger with a full snapshot every 8 generations, and Waldo draining
// at the default interval. The benchmark owns the drain loop (instead of
// Waldo.Start) so that it can time each Drain from outside.
type node struct {
	logFS, ckptFS *countFS
	id            *signer.Identity
	writer        *provlog.Writer
	w             *waldo.Waldo
	store         *checkpoint.Store
	rec           *checkpoint.Recovered
	srv           *passd.Server
	tr            *tracer
	drainErr      atomic.Value
	stop          chan struct{}
	loopDone      sync.WaitGroup
	closeOnce     sync.Once
	bootRecords   int64 // records in the database when the boot finished its tail drain
}

// bootNode boots a daemon over dir following cmd/passd's sequence:
// LoadMMR, Store.Load with signed-root verification, the log writer with
// the MMR attached, RestoreVolumes, the tail Drain, then Serve. boot is
// the causing span of every step.
func bootNode(dir string, c *counters, tr *tracer, boot int64) (*node, error) {
	logFS, ckptFS, err := openFS(dir, c, tr)
	if err != nil {
		return nil, err
	}
	n := &node{logFS: logFS, ckptFS: ckptFS, tr: tr, stop: make(chan struct{})}
	step := func(name string, fn func() error) error { return tr.within(boot, name, fn) }

	if n.id, err = signer.LoadOrCreate(logFS, "/keys"); err != nil {
		return nil, err
	}
	var bootM *mmr.MMR
	if err := step(spanMMRLoad, func() (err error) {
		bootM, err = provlog.LoadMMR(logFS, "/", logVolume)
		return err
	}); err != nil {
		return nil, err
	}

	if n.store, err = checkpoint.NewStore(ckptFS, "/", checkpoint.DefaultRetain); err != nil {
		return nil, err
	}
	n.store.VerifyProofs = func(man *checkpoint.Manifest) error {
		return tr.within(tr.parent.Load(), spanRootCheck, func() error {
			var err error
			bootM, err = verifyProofs(man, n.id, bootM, logFS)
			return err
		})
	}
	if err := step(spanCkptLoad, func() (err error) {
		n.rec, err = n.store.Load()
		return err
	}); err != nil {
		return nil, err
	}

	n.w = waldo.New()
	if n.rec.DB != nil {
		n.w.DB = n.rec.DB
	}
	if n.writer, err = provlog.NewWriter(logFS, "/", 0); err != nil {
		return nil, err
	}
	n.w.Attach(waldo.NewLogVolume(logVolume, logFS, n.writer))
	if err := step(spanMMRAttach, func() error { return n.writer.AttachMMR(bootM, logVolume) }); err != nil {
		return nil, fmt.Errorf("tamper evidence would be disabled: %w", err)
	}
	if n.rec.DB != nil {
		if err := step(spanRestore, func() error {
			if missing := n.w.RestoreVolumes(n.rec.Volumes); len(missing) != 0 {
				return fmt.Errorf("checkpointed volumes %v have no attached log", missing)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := step(spanTailDrain, n.w.Drain); err != nil {
		return nil, err
	}
	n.bootRecords, _, _ = n.w.DB.Stats()
	n.loopDone.Add(1)
	go n.drainLoop()

	var stash struct {
		mu sync.Mutex
		st mmr.State
		ok bool
	}
	n.store.MakeProofs = func(cp *waldo.CheckpointState) ([]checkpoint.Proof, error) {
		var proofs []checkpoint.Proof
		err := tr.within(0, spanProve, func() error {
			st, _, root, err := n.writer.SyncTamper()
			if err != nil {
				return err
			}
			stmt := signer.Statement{Volume: logVolume, Root: root, Size: st.Count,
				Gen: uint64(cp.Gen), Timestamp: uint64(time.Now().Unix())}
			stash.mu.Lock()
			stash.st, stash.ok = st, true
			stash.mu.Unlock()
			proofs = []checkpoint.Proof{{Volume: logVolume, Size: st.Count, Root: root,
				Timestamp: stmt.Timestamp, DeviceID: n.id.DeviceID,
				PubKey: append([]byte(nil), n.id.Pub...), Sig: n.id.Sign(stmt)}}
			return nil
		})
		return proofs, err
	}
	tamper := &passd.TamperConfig{
		Volume: logVolume,
		Signer: n.id,
		SaveState: func() error {
			stash.mu.Lock()
			st, ok := stash.st, stash.ok
			stash.mu.Unlock()
			if !ok {
				return nil
			}
			return provlog.SaveMMR(logFS, "/", st)
		},
		MMR:       n.writer.MMR,
		Rehydrate: n.writer.Rehydrate,
	}

	appendFn := func(recs []record.Record) error {
		id, start := tr.begin()
		defer tr.finish(id, 0, spanAppend, "", int64(len(recs)), start)
		c.appended.Add(int64(len(recs)))
		for _, r := range recs {
			if err := n.writer.AppendRecord(0, r); err != nil {
				return err
			}
		}
		return nil
	}
	syncFn := func() error {
		id, start := tr.begin()
		defer tr.finish(id, 0, spanSync, "", 0, start)
		c.syncs.Add(1)
		return n.writer.Sync()
	}
	err = step(spanServe, func() (err error) {
		n.srv, err = passd.Serve(n.w, passd.Config{
			Checkpoints:         n.store,
			CheckpointInterval:  ckptInterval,
			CheckpointEvery:     ckptRecords,
			CheckpointFullEvery: ckptFullEvery,
			Append:              appendFn,
			Sync:                syncFn,
			Recovered:           n.rec,
			Tamper:              tamper,
		})
		return err
	})
	if err != nil {
		close(n.stop)
		n.loopDone.Wait()
		return nil, err
	}
	return n, nil
}

// verifyProofs is cmd/passd's recovery gate: a generation is trusted only
// if its signed root statement verifies and the log reproduces the root.
// It returns the MMR to continue with (rebuilt in full when the resumed
// one was pruned past the generation's size).
func verifyProofs(man *checkpoint.Manifest, id *signer.Identity, m *mmr.MMR, fs vfs.FS) (*mmr.MMR, error) {
	for _, p := range man.Proofs {
		if p.Volume != logVolume {
			return m, fmt.Errorf("generation %d: proof names unknown volume %q", man.Gen, p.Volume)
		}
		if !bytes.Equal(p.PubKey, id.Pub) {
			return m, fmt.Errorf("generation %d: proof signed by a different identity", man.Gen)
		}
		st := signer.Statement{DeviceID: p.DeviceID, Volume: p.Volume, Root: p.Root,
			Size: p.Size, Gen: uint64(man.Gen), Timestamp: p.Timestamp}
		if !signer.Verify(ed25519.PublicKey(p.PubKey), st, p.Sig) {
			return m, fmt.Errorf("generation %d: root statement signature is invalid", man.Gen)
		}
		root, err := m.RootAt(p.Size)
		if errors.Is(err, mmr.ErrPruned) {
			full, rerr := provlog.RebuildMMR(fs, "/", logVolume)
			if rerr != nil {
				return m, rerr
			}
			m = full
			root, err = m.RootAt(p.Size)
		}
		if err != nil {
			return m, err
		}
		if root != p.Root {
			return m, fmt.Errorf("generation %d: signed root over %d records does not match the log", man.Gen, p.Size)
		}
	}
	return m, nil
}

// drainLoop drains at the daemon's default interval until stopped.
func (n *node) drainLoop() {
	defer n.loopDone.Done()
	t := time.NewTicker(drainInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		if err := n.drain(); err != nil {
			n.drainErr.Store(err)
			return
		}
	}
}

// drain is one timed Waldo.Drain; the span's N is the records it applied.
func (n *node) drain() error {
	id, start := n.tr.begin()
	if id != 0 {
		prev := n.tr.parent.Swap(id)
		defer n.tr.parent.Store(prev)
	}
	before, _, _ := n.w.DB.Stats()
	err := n.w.Drain()
	after, _, _ := n.w.DB.Stats()
	n.tr.finish(id, 0, spanDrain, "", after-before, start)
	return err
}

// close shuts down as cmd/passd does on SIGTERM: stop the drain loop,
// drain once more, then close the server, which writes a final
// checkpoint generation.
func (n *node) close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.stop)
		n.loopDone.Wait()
		if e, ok := n.drainErr.Load().(error); ok {
			err = e
		}
		err = errors.Join(err, n.drain(), n.srv.Close())
	})
	return err
}
