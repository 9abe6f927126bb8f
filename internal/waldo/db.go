// Package waldo implements Waldo, the PASSv2 user-level daemon (§5.6): it
// reads provenance records from the Lasagna log and stores them in a
// database, indexing them for the query engine. It is also where orphaned
// NFS transactions — provenance from a client that crashed mid-write — are
// identified and discarded (§6.1.2).
package waldo

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"passv2/internal/kvdb"
	"passv2/internal/pnode"
	"passv2/internal/record"
)

// Key schema. The "a|" space is the provenance database proper; everything
// else is a secondary index (the distinction Table 3 reports).
//
//	a|<pn16x>|<ver8x>|<attr>|<seq8x> → encoded value   (attribute rows)
//	i|<pn16x>|<ver8x>|<dst16x>|<dstver8x> → ""          (INPUT out-edges)
//	r|<pn16x>|<ver8x>|<src16x>|<srcver8x> → ""          (INPUT in-edges)
//	n|<name>\x00<pn16x> → ""                            (name index)
//	t|<type>\x00<pn16x> → ""                            (type index)
//	v|<pn16x>|<ver8x> → ""                              (version index)
//	N|<pn16x> → <ver8x><seq8x><name>                    (reverse name index)
//	T|<pn16x> → <ver8x><seq8x><type>                    (reverse type index)
//
// The reverse indexes give NameOf/TypeOf O(log n) point lookups; the
// <ver8x><seq8x> prefix makes "most recent wins" an ordinary string
// comparison even when records are applied out of version order.

const hexDigits = "0123456789abcdef"

// appendHex64/appendHex32 are the hot-path replacements for
// fmt.Sprintf("%016x"/"%08x"): fixed-width lowercase hex with no
// interface boxing or format parsing.
func appendHex64(dst []byte, v uint64) []byte {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return append(dst, b[:]...)
}

func appendHex32(dst []byte, v uint32) []byte {
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return append(dst, b[:]...)
}

func appendRefKey(dst []byte, r pnode.Ref) []byte {
	dst = appendHex64(dst, uint64(r.PNode))
	dst = append(dst, '|')
	return appendHex32(dst, uint32(r.Version))
}

func pnKey(pn pnode.PNode) string     { return string(appendHex64(nil, uint64(pn))) }
func verKey(v pnode.Version) string   { return string(appendHex32(nil, uint32(v))) }
func refKey(r pnode.Ref) string       { return string(appendRefKey(nil, r)) }
func parsePN(s string) pnode.PNode    { n, _ := strconv.ParseUint(s, 16, 64); return pnode.PNode(n) }
func parseVer(s string) pnode.Version { n, _ := strconv.ParseUint(s, 16, 32); return pnode.Version(n) }

func parseRef(s string) (pnode.Ref, bool) {
	if len(s) != 16+1+8 || s[16] != '|' {
		return pnode.Ref{}, false
	}
	return pnode.Ref{PNode: parsePN(s[:16]), Version: parseVer(s[17:])}, true
}

// kvStore is the ordered-read surface the query methods run over: both the
// live store (*kvdb.DB, reads under its RWMutex) and a pinned snapshot
// (*kvdb.View, lock-free) provide it.
type kvStore interface {
	Get(key string) ([]byte, bool)
	Has(key string) bool
	AscendPrefix(prefix string, fn func(key string, value []byte) bool)
	MaxInPrefix(prefix string) (string, []byte, bool)
	HasPrefix(prefix string) bool
}

// reader is the query surface of a provenance database — the methods the
// graph layer (graph.Source, graph.RefScanner) consumes. It is embedded by
// both DB (over the live store) and ReadView (over a frozen view), so the
// two answer queries with identical code.
type reader struct {
	store kvStore

	// legacy marks a database loaded from a snapshot that predates the
	// N|/T| reverse indexes; NameOf/TypeOf then fall back to scanning. It
	// is set during Load, before the database is shared.
	legacy bool
}

// DB is the indexed provenance database.
type DB struct {
	reader
	kv *kvdb.DB // the live store behind reader.store, for the write paths

	mu        sync.Mutex
	seqs      map[seqKey]int // per-version per-attr row sequence
	keyBuf    []byte         // scratch for a batch's keys, guarded by mu
	valBuf    []byte         // scratch for a batch's values, guarded by mu
	ends      []rowEnd       // scratch row boundaries, guarded by mu
	kvBuf     []kvdb.KV      // scratch batch, guarded by mu
	provBytes int64
	idxBytes  int64
	records   int64

	// lazySeqs marks a database loaded by LoadCheckpoint: the seqs map
	// starts empty and a (ref, attr) pair's next row sequence is recovered
	// from the store (a bounded prefix count) the first time that pair is
	// written again. It keeps checkpoint recovery free of full-store scans.
	lazySeqs bool

	// gen counts applied batches: a cheap change detector, so a serving
	// layer can tell whether a pinned snapshot is still current without
	// comparing contents.
	gen atomic.Int64
}

// seqKey names one attribute of one version: the unit whose rows are
// numbered by a sequence.
type seqKey struct {
	ref  pnode.Ref
	attr record.Attr
}

// rowEnd marks where one row of a batch ends in the batch's key and
// value buffers.
type rowEnd struct{ key, val int }

// Gen returns the database generation: it increases every time a batch of
// records is applied, and is otherwise stable. Two equal Gen readings
// bracket an unchanged database, which is what makes snapshot-keyed
// caches (passd's plan/memo/result caches) sound.
func (db *DB) Gen() int64 { return db.gen.Load() }

// RestoreGen seeds the generation counter of a freshly loaded database.
// Checkpoint recovery calls it with the checkpointed generation so that
// generations — and the checkpoint files named after them — stay monotonic
// across restarts; without it a post-recovery checkpoint would sort before
// the one it was recovered from.
func (db *DB) RestoreGen(gen int64) {
	if gen > db.gen.Load() {
		db.gen.Store(gen)
	}
}

// NewDB creates an empty database.
func NewDB() *DB {
	kv := kvdb.New()
	return &DB{
		reader: reader{store: kv},
		kv:     kv,
		seqs:   make(map[seqKey]int),
	}
}

// Apply stores one provenance record and maintains the indexes.
func (db *DB) Apply(r record.Record) {
	var one [1]record.Record
	one[0] = r
	db.ApplyBatch(one[:])
}

// ApplyBatch stores a batch of provenance records and maintains the
// indexes. This is Waldo's ingestion hot path: it takes the database lock
// once for the whole batch, encodes every key back to back into one
// buffer with hand-rolled hex (no fmt on this path) and cuts the batch's
// keys from a single string made of it, and hands the store one sorted,
// deduplicated run so the B-tree's amortized insertion applies. The store
// copies what it keeps, so the key string dies with the batch and the
// value buffer is reused.
func (db *DB) ApplyBatch(recs []record.Record) {
	if len(recs) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()

	keys, vals, ends := db.keyBuf[:0], db.valBuf[:0], db.ends[:0]
	row := func() { ends = append(ends, rowEnd{len(keys), len(vals)}) }

	for _, r := range recs {
		sk := seqKey{r.Subject, r.Attr}
		seq, have := db.seqs[sk]
		if !have && db.lazySeqs {
			// Checkpoint-recovered database: the next sequence for rows
			// this process has not yet written is however many rows the
			// snapshot already holds (a bounded prefix count, cached here).
			prefix := append(keys, 'a', '|')
			prefix = appendRefKey(prefix, r.Subject)
			prefix = append(prefix, '|')
			prefix = append(prefix, r.Attr...)
			prefix = append(prefix, '|')
			seq = db.kv.CountPrefix(string(prefix[len(keys):]))
		}
		db.seqs[sk] = seq + 1
		db.records++

		keys = append(keys, 'a', '|')
		keys = appendRefKey(keys, r.Subject)
		keys = append(keys, '|')
		keys = append(keys, r.Attr...)
		keys = append(keys, '|')
		keys = appendHex32(keys, uint32(seq))
		vals = record.AppendValue(vals, r.Value)
		row()

		keys = append(keys, 'v', '|')
		keys = appendRefKey(keys, r.Subject)
		row()

		if dep, isRef := r.Value.AsRef(); isRef && r.Attr == record.AttrInput {
			keys = append(keys, 'i', '|')
			keys = appendRefKey(keys, r.Subject)
			keys = append(keys, '|')
			keys = appendRefKey(keys, dep)
			row()

			keys = append(keys, 'r', '|')
			keys = appendRefKey(keys, dep)
			keys = append(keys, '|')
			keys = appendRefKey(keys, r.Subject)
			row()

			keys = append(keys, 'v', '|')
			keys = appendRefKey(keys, dep)
			row()
		}
		if s, isStr := r.Value.AsString(); isStr {
			var label, rev byte
			switch r.Attr {
			case record.AttrName:
				label, rev = 'n', 'N'
			case record.AttrType:
				label, rev = 't', 'T'
			default:
				continue
			}
			keys = append(keys, label, '|')
			keys = append(keys, s...)
			keys = append(keys, 0)
			keys = appendHex64(keys, uint64(r.Subject.PNode))
			row()

			// A legacy-snapshot database keeps answering NameOf/TypeOf
			// from scans: seeding the reverse index here could shadow a
			// newer label that exists only in the un-indexed legacy rows.
			if db.legacy {
				continue
			}
			// Reverse index: value carries <ver8x><seq8x> so the most
			// recent record wins regardless of application order.
			keys = append(keys, rev, '|')
			keys = appendHex64(keys, uint64(r.Subject.PNode))
			vals = appendHex32(vals, uint32(r.Subject.Version))
			vals = appendHex32(vals, uint32(seq))
			vals = append(vals, s...)
			row()
		}
	}

	all := string(keys)
	kvs := db.kvBuf[:0]
	var (
		k0, v0  int
		oldLens map[string]int
	)
	for _, e := range ends {
		kv := kvdb.KV{Key: all[k0:e.key]}
		if e.val > v0 {
			kv.Val = vals[v0:e.val:e.val]
		}
		k0, v0 = e.key, e.val
		if c := kv.Key[0]; c == 'N' || c == 'T' {
			if old, exists := db.kv.Get(kv.Key); exists {
				if len(old) >= 16 && string(old[:16]) > string(kv.Val[:16]) {
					continue // a newer version's label is already indexed
				}
				// Reverse-index rows are the only keys whose values get
				// replaced; keep the outgoing length so idxBytes tracks
				// the delta.
				if oldLens == nil {
					oldLens = make(map[string]int)
				}
				oldLens[kv.Key] = len(old)
			}
		}
		kvs = append(kvs, kv)
	}

	// One sorted, deduplicated run into the store. For equal keys the
	// greatest value wins: index keys carry nil values (all equal), and
	// reverse-index values order by their <ver8x><seq8x> prefix.
	slices.SortFunc(kvs, func(a, b kvdb.KV) int {
		if c := strings.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return bytes.Compare(a.Val, b.Val)
	})
	out := kvs[:0]
	for i := range kvs {
		if i+1 < len(kvs) && kvs[i+1].Key == kvs[i].Key {
			continue
		}
		out = append(out, kvs[i])
	}
	db.kv.SetBatch(out)

	for i := range out {
		size := len(out[i].Key) + len(out[i].Val)
		switch {
		case out[i].Key[0] == 'a':
			db.provBytes += int64(size)
		case out[i].New:
			db.idxBytes += int64(size)
		default:
			if oldLen, ok := oldLens[out[i].Key]; ok {
				db.idxBytes += int64(len(out[i].Val) - oldLen)
			}
		}
	}

	// Drop the batch's references so its key string can be collected.
	clear(kvs)
	db.kvBuf, db.keyBuf, db.valBuf, db.ends = kvs[:0], keys[:0], vals[:0], ends[:0]
	db.gen.Add(1)
}

// Stats reports sizes for the space-overhead evaluation: records applied,
// provenance-database bytes, and index bytes.
func (db *DB) Stats() (records, provBytes, idxBytes int64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.records, db.provBytes, db.idxBytes
}

// TreeStats exposes the underlying store's tree shape (key count, node
// count, depth) for the ingestion benchmarks.
func (db *DB) TreeStats() kvdb.Stats { return db.kv.Stats() }

// ReadView returns an immutable snapshot of the database. Taking one is
// O(1) (it pins the store's current tree root; subsequent ingestion
// copy-on-writes around it) and the view never contends with ApplyBatch —
// this is what lets many concurrent queries run while ingestion continues.
//
// ReadView acquires the database lock, so the snapshot always lands on an
// ApplyBatch boundary: a view observes a whole number of applied record
// batches, never a torn one. Relative to Waldo.Drain, that means a prefix
// of the drained log in applyBatchSize units; take the view after Drain
// returns to observe everything the drain ingested.
//
// A ReadView implements the same query surface as DB (graph.Source and
// graph.RefScanner), so graph.New(db.ReadView()) builds a graph whose
// queries are snapshot-isolated and lock-free.
func (db *DB) ReadView() *ReadView {
	db.mu.Lock()
	defer db.mu.Unlock()
	kv := db.kv.View()
	return &ReadView{
		reader:    reader{store: kv, legacy: db.legacy},
		kv:        kv,
		gen:       db.gen.Load(),
		records:   db.records,
		provBytes: db.provBytes,
		idxBytes:  db.idxBytes,
	}
}

// ReadView is an immutable snapshot of a provenance database: the full
// query surface of DB, answered from a frozen tree with no locking. See
// DB.ReadView.
type ReadView struct {
	reader
	kv        *kvdb.View
	gen       int64
	records   int64
	provBytes int64
	idxBytes  int64
}

// Gen returns the database generation the view was pinned at; the view is
// current exactly while DB.Gen() still returns it.
func (v *ReadView) Gen() int64 { return v.gen }

// Stats reports the record and byte counters pinned when the view was
// taken.
func (v *ReadView) Stats() (records, provBytes, idxBytes int64) {
	return v.records, v.provBytes, v.idxBytes
}

// Save writes the view's frozen image in the snapshot format — the same
// bytes DB.Save would have written at the view's point in time. The
// checkpoint store writes snapshots from a pinned view so ingestion never
// pauses for the disk.
func (v *ReadView) Save(w io.Writer) error { return v.kv.Save(w) }

// Epoch returns the underlying store's write epoch at the pin — the
// ordering delta checkpoints prune by. Epochs compare only between views
// of the same live database within one process lifetime.
func (v *ReadView) Epoch() uint64 { return v.kv.Epoch() }

// SnapshotSize returns the exact byte size Save would write, letting the
// checkpoint policy compare a delta against the full snapshot it would
// replace before committing either.
func (v *ReadView) SnapshotSize() int64 { return v.kv.SnapshotSize() }

// SaveDelta writes the ops that transform base's image into v's (sets and
// delete tombstones, kvdb delta format). base must be an earlier ReadView
// of the same live database in the same process; otherwise
// kvdb.ErrDeltaBase is returned and nothing is written, which is the
// checkpoint store's cue to fall back to a full generation.
func (v *ReadView) SaveDelta(base *ReadView, w io.Writer) (kvdb.DeltaStats, error) {
	if base == nil {
		return kvdb.DeltaStats{}, kvdb.ErrDeltaBase
	}
	return v.kv.SaveDelta(base.kv, w)
}

// --- Query surface (used by the graph view and PQL) ---
//
// These methods live on reader, so they serve identically over the live
// database (*DB) and over a pinned snapshot (*ReadView).

// Attrs returns all attribute records of one object version, in insertion
// order per attribute.
func (r *reader) Attrs(ref pnode.Ref) []record.Record {
	var out []record.Record
	prefix := "a|" + refKey(ref) + "|"
	r.store.AscendPrefix(prefix, func(k string, v []byte) bool {
		rest := k[len(prefix):] // attr|seq
		attr := rest[:len(rest)-9]
		val, _, err := record.DecodeValue(v)
		if err == nil {
			out = append(out, record.Record{Subject: ref, Attr: record.Attr(attr), Value: val})
		}
		return true
	})
	return out
}

// AttrValues returns the values of one attribute on one version.
func (r *reader) AttrValues(ref pnode.Ref, attr record.Attr) []record.Value {
	var out []record.Value
	for _, rec := range r.Attrs(ref) {
		if rec.Attr == attr {
			out = append(out, rec.Value)
		}
	}
	return out
}

// Inputs returns the direct ancestors of one object version.
func (r *reader) Inputs(ref pnode.Ref) []pnode.Ref {
	return r.edgeScan("i|", ref)
}

// Dependents returns the direct descendants of one object version.
func (r *reader) Dependents(ref pnode.Ref) []pnode.Ref {
	return r.edgeScan("r|", ref)
}

func (r *reader) edgeScan(space string, ref pnode.Ref) []pnode.Ref {
	var out []pnode.Ref
	prefix := space + refKey(ref) + "|"
	r.store.AscendPrefix(prefix, func(k string, _ []byte) bool {
		if dst, ok := parseRef(k[len(prefix):]); ok {
			out = append(out, dst)
		}
		return true
	})
	return out
}

// Versions lists all known versions of a pnode, ascending.
func (r *reader) Versions(pn pnode.PNode) []pnode.Version {
	var out []pnode.Version
	prefix := "v|" + pnKey(pn) + "|"
	r.store.AscendPrefix(prefix, func(k string, _ []byte) bool {
		out = append(out, parseVer(k[len(prefix):]))
		return true
	})
	return out
}

// LatestVersion returns the highest known version of a pnode: one bounded
// last-key descent in the version index, instead of materializing the full
// Versions slice and taking its tail.
func (r *reader) LatestVersion(pn pnode.PNode) (pnode.Version, bool) {
	prefix := "v|" + pnKey(pn) + "|"
	k, _, ok := r.store.MaxInPrefix(prefix)
	if !ok {
		return 0, false
	}
	return parseVer(k[len(prefix):]), true
}

// ByName returns the pnodes that have carried the exact name.
func (r *reader) ByName(name string) []pnode.PNode {
	return r.labelScan("n|", name)
}

// ByType returns the pnodes of one object type.
func (r *reader) ByType(typ string) []pnode.PNode {
	return r.labelScan("t|", typ)
}

// RefsByType returns every version of every pnode that has carried TYPE
// typ. It is the planner's bulk root enumeration (graph.RefScanner): one
// pass over the type index followed by bounded version-index scans with a
// shared key buffer, instead of ByType building a pnode slice and the graph
// layer running a dedup-map-and-sort Versions union per pnode. Output is
// sorted by (pnode, version).
func (r *reader) RefsByType(typ string) []pnode.Ref {
	return r.labelRefs("t|" + typ + "\x00")
}

// RefsByName returns every version of every pnode that has carried the
// exact name (graph.RefScanner; the name-equality pushdown seek).
func (r *reader) RefsByName(name string) []pnode.Ref {
	return r.labelRefs("n|" + name + "\x00")
}

func (r *reader) labelRefs(prefix string) []pnode.Ref {
	// Collect the pnodes first, then scan their version ranges: the two
	// phases must not nest, or a reader holding the store's RLock could
	// deadlock behind a queued ingestion writer.
	var pns []pnode.PNode
	r.store.AscendPrefix(prefix, func(k string, _ []byte) bool {
		pns = append(pns, parsePN(k[len(prefix):]))
		return true
	})
	out := make([]pnode.Ref, 0, len(pns))
	buf := make([]byte, 0, 2+16+1)
	for _, pn := range pns {
		buf = append(buf[:0], 'v', '|')
		buf = appendHex64(buf, uint64(pn))
		buf = append(buf, '|')
		vp := string(buf)
		r.store.AscendPrefix(vp, func(vk string, _ []byte) bool {
			out = append(out, pnode.Ref{PNode: pn, Version: parseVer(vk[len(vp):])})
			return true
		})
	}
	return out
}

// HasTypedPNode reports whether pn has ever carried TYPE typ: one point
// lookup in the type index (graph.RefScanner).
func (r *reader) HasTypedPNode(pn pnode.PNode, typ string) bool {
	return r.store.Has("t|" + typ + "\x00" + pnKey(pn))
}

func (r *reader) labelScan(space, label string) []pnode.PNode {
	var out []pnode.PNode
	prefix := space + label + "\x00"
	r.store.AscendPrefix(prefix, func(k string, _ []byte) bool {
		out = append(out, parsePN(k[len(prefix):]))
		return true
	})
	return out
}

// NameOf returns the most recent NAME value of a pnode across versions: an
// O(log n) point lookup in the reverse name index, with a bounded per-pnode
// scan as the fallback for pre-index snapshots.
func (r *reader) NameOf(pn pnode.PNode) (string, bool) {
	if v, ok := r.store.Get("N|" + pnKey(pn)); ok && len(v) >= 16 {
		return string(v[16:]), true
	}
	if !r.legacy {
		return "", false
	}
	name, found := "", false
	prefix := "a|" + pnKey(pn) + "|"
	r.store.AscendPrefix(prefix, func(k string, v []byte) bool {
		rest := k[len(prefix):] // ver|attr|seq
		if len(rest) > 9 && rest[9:len(rest)-9] == string(record.AttrName) {
			if val, _, err := record.DecodeValue(v); err == nil {
				if s, ok := val.AsString(); ok {
					name, found = s, true
				}
			}
		}
		return true
	})
	return name, found
}

// TypeOf returns the TYPE of a pnode, if recorded: an O(log n) point
// lookup in the reverse type index. Only a database loaded from a snapshot
// older than the index falls back to walking the t| space.
func (r *reader) TypeOf(pn pnode.PNode) (string, bool) {
	if v, ok := r.store.Get("T|" + pnKey(pn)); ok && len(v) >= 16 {
		return string(v[16:]), true
	}
	if !r.legacy {
		return "", false
	}
	typ, found := "", false
	r.store.AscendPrefix("t|", func(k string, _ []byte) bool {
		body := k[2:]
		for i := 0; i < len(body); i++ {
			if body[i] == 0 {
				if parsePN(body[i+1:]) == pn {
					typ, found = body[:i], true
					return false
				}
				break
			}
		}
		return true
	})
	return typ, found
}

// MaxPNode returns the highest pnode the database knows — as a record
// subject or as a cross-reference target — whose top 16 bits equal prefix:
// one bounded last-key descent in the version index. The passd object
// registry uses it to seed its pnode allocator past everything a previous
// process may have handed out, preserving the paper's never-recycled
// guarantee (§5.2) across daemon crashes.
func (r *reader) MaxPNode(prefix uint16) (pnode.PNode, bool) {
	buf := make([]byte, 0, 2+16)
	buf = append(buf, 'v', '|')
	buf = appendHex64(buf, uint64(prefix)<<prefixShift)
	k, _, ok := r.store.MaxInPrefix(string(buf[:2+4]))
	if !ok {
		return 0, false
	}
	pn := parsePN(k[2 : 2+16])
	if pnode.VolumePrefix(pn) != prefix {
		return 0, false
	}
	return pn, true
}

// prefixShift mirrors pnode's volume-prefix layout: 48 bits of per-volume
// pnode space below a 16-bit prefix.
const prefixShift = 48

// AllPNodes lists every pnode in the database, ascending.
func (r *reader) AllPNodes() []pnode.PNode {
	seen := make(map[pnode.PNode]bool)
	var out []pnode.PNode
	r.store.AscendPrefix("v|", func(k string, _ []byte) bool {
		pn := parsePN(k[2 : 2+16])
		if !seen[pn] {
			seen[pn] = true
			out = append(out, pn)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllRefs lists every (pnode, version) in the database.
func (r *reader) AllRefs() []pnode.Ref {
	var out []pnode.Ref
	r.store.AscendPrefix("v|", func(k string, _ []byte) bool {
		if ref, ok := parseRef(k[2:]); ok {
			out = append(out, ref)
		}
		return true
	})
	return out
}

// Save / Load persist the database via the kvdb snapshot format. Save pins
// a store view first, so the written image is consistent even while
// ingestion continues. Derived counters (stats, row sequences) are rebuilt
// on load.
func (db *DB) Save(w io.Writer) error { return db.kv.Save(w) }

// Load reads a database snapshot.
func Load(r io.Reader) (*DB, error) {
	kv, err := kvdb.Load(r)
	if err != nil {
		return nil, err
	}
	db := &DB{
		reader: reader{store: kv},
		kv:     kv,
		seqs:   make(map[seqKey]int),
	}
	kv.AscendPrefix("a|", func(k string, v []byte) bool {
		db.provBytes += int64(len(k) + len(v))
		db.records++
		// a|pn|ver|attr|seq
		body := k[2:]
		if ref, ok := parseRef(body[:25]); ok && len(body) > 25+1+9 {
			db.seqs[seqKey{ref, record.Attr(body[26 : len(body)-9])}]++
		}
		return true
	})
	for _, prefix := range []string{"i|", "r|", "n|", "t|", "v|", "N|", "T|"} {
		kv.AscendPrefix(prefix, func(k string, v []byte) bool {
			db.idxBytes += int64(len(k) + len(v))
			return true
		})
	}
	// A snapshot with label indexes but no reverse indexes predates them:
	// serve NameOf/TypeOf by scanning, as the old code did.
	if (kv.HasPrefix("n|") || kv.HasPrefix("t|")) &&
		!kv.HasPrefix("N|") && !kv.HasPrefix("T|") {
		db.legacy = true
	}
	return db, nil
}

// LoadCheckpoint reads a database snapshot image on the checkpoint
// recovery path: the derived counters (records, provenance and index
// bytes) come from the checkpoint manifest instead of the rebuild scans
// Load runs, and per-ref row sequences are recovered lazily on first
// write (see DB.lazySeqs). Restart cost is therefore one bulk tree build —
// nothing else touches every key.
func LoadCheckpoint(data []byte, records, provBytes, idxBytes int64) (*DB, error) {
	return LoadCheckpointChain(data, nil, records, provBytes, idxBytes)
}

// LoadCheckpointChain reconstructs a database from a full snapshot image
// plus a chain of delta images (kvdb delta format, oldest first) — the
// composition step of incremental checkpoint recovery. The counters come
// from the newest generation's manifest, so they describe the database
// after every delta has been applied. Like LoadCheckpoint, it takes
// ownership of the full image, which the loaded store's leaves alias; the
// delta images are copied in and free again once it returns.
func LoadCheckpointChain(full []byte, deltas [][]byte, records, provBytes, idxBytes int64) (*DB, error) {
	kv, err := kvdb.LoadBytes(full)
	if err != nil {
		return nil, err
	}
	for i, d := range deltas {
		if _, err := kvdb.ApplyDeltaBytes(kv, d); err != nil {
			return nil, fmt.Errorf("delta %d of %d: %w", i+1, len(deltas), err)
		}
	}
	db := &DB{
		reader:    reader{store: kv},
		kv:        kv,
		seqs:      make(map[seqKey]int),
		records:   records,
		provBytes: provBytes,
		idxBytes:  idxBytes,
		lazySeqs:  true,
	}
	// Checkpoints are written by current code, so the legacy probe is only
	// a cheap safety net (four O(log n) lookups).
	if (kv.HasPrefix("n|") || kv.HasPrefix("t|")) &&
		!kv.HasPrefix("N|") && !kv.HasPrefix("T|") {
		db.legacy = true
	}
	return db, nil
}
