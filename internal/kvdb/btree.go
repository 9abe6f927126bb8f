// Package kvdb is an embedded ordered key-value store: the substrate for
// the Waldo provenance database (the kernel prototype used Berkeley DB).
// It provides ordered iteration (range and prefix scans), which Waldo's
// secondary indexes are built from, plus snapshot persistence so a query
// shell can work on a saved database.
//
// The implementation is an in-memory B-tree with copy-free reads; all
// operations are safe for concurrent use through a single RWMutex, which
// matches Waldo's workload (one ingesting writer, many query readers).
// For readers that must not contend with the writer at all, View returns
// an O(1) immutable image of the store: taking a view bumps the store's
// write epoch, and every mutation after that clones the nodes it touches
// (path copying) instead of editing them in place, so a view's tree is
// frozen for as long as the view is held.
package kvdb

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// degree is the minimum number of keys per non-root node. Nodes hold
// between degree and 2*degree keys (except the root).
const degree = 16

// maxPair bounds one key plus its value. A node holds at most
// 2*degree+1 pairs, so its live bytes plus one more pair stay near
// 2.1 GiB, and an arena repacked before it would pass 4 GiB (see room)
// keeps every offset within a uint32.
const maxPair = 1 << 26

// node is one B-tree node. Its pairs are packed into arena, each as its
// key bytes followed by its value bytes; offs holds three offsets per pair,
// in key order: key start, key end (where the value starts) and value end.
// Neither slice's memory holds a pointer, so the collector never scans
// it: children is the only field whose memory does.
//
// Bytes in an arena are never rewritten once written. Inserts and value
// replacements append; the bytes they supersede become dead, and clone,
// split, merge and reclaim pack the live pairs into a fresh arena instead
// of moving them in place. Every key string and value slice handed out —
// returned by Get, passed to Ascend callbacks, read from a View — therefore
// keeps its bytes for as long as its holder keeps it.
type node struct {
	arena    []byte
	offs     []uint32
	children []*node // nil for leaves
	// epoch is the DB write epoch the node was created (or cloned) in. A
	// node whose epoch predates the store's current epoch may be shared
	// with a View, or its arena may alias a LoadBytes image, and must be
	// cloned before mutation.
	epoch uint64
}

func (n *node) leaf() bool { return n.children == nil }

// size returns the number of pairs in n.
func (n *node) size() int { return len(n.offs) / 3 }

// key returns pair i's key, aliasing the arena.
func (n *node) key(i int) string {
	s, e := n.offs[3*i], n.offs[3*i+1]
	if s == e {
		return ""
	}
	return unsafe.String(&n.arena[s], int(e-s))
}

// val returns pair i's value, aliasing the arena; capped at its length so
// that a caller's append cannot reach the bytes after it. An empty value
// reads as nil.
func (n *node) val(i int) []byte {
	s, e := n.offs[3*i+1], n.offs[3*i+2]
	if s == e {
		return nil
	}
	return n.arena[s:e:e]
}

// search returns the index of the first key >= key.
func (n *node) search(key string) int {
	offs, arena := n.offs, n.arena
	lo, hi := 0, len(offs)/3
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if string(arena[offs[3*m]:offs[3*m+1]]) < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns the index of key in n, or the child index to descend into,
// and whether the key was found.
func (n *node) find(key string) (int, bool) {
	i := n.search(key)
	return i, i < n.size() && n.key(i) == key
}

// pairBytes returns the bytes pairs [lo, hi) of n occupy in its arena.
func (n *node) pairBytes(lo, hi int) int {
	b := 0
	for i := 3 * lo; i < 3*hi; i += 3 {
		b += int(n.offs[i+2] - n.offs[i])
	}
	return b
}

// room repacks the arena first if appending b more bytes would take it
// past what a uint32 offset can address.
func (n *node) room(b int) {
	if uint64(len(n.arena))+uint64(b) > math.MaxUint32 {
		n.repack()
	}
}

// appendPair copies key and val onto the end of the arena and returns
// their offsets.
func (n *node) appendPair(key string, val []byte) (s, k, e uint32) {
	if len(key)+len(val) > maxPair {
		panic("kvdb: key plus value exceeds 64 MiB")
	}
	n.room(len(key) + len(val))
	s = uint32(len(n.arena))
	n.arena = append(n.arena, key...)
	n.arena = append(n.arena, val...)
	return s, s + uint32(len(key)), uint32(len(n.arena))
}

// insert makes (key, val) pair i, shifting later pairs up.
func (n *node) insert(i int, key string, val []byte) {
	s, k, e := n.appendPair(key, val)
	n.offs = append(n.offs, 0, 0, 0)
	copy(n.offs[3*i+3:], n.offs[3*i:])
	n.offs[3*i], n.offs[3*i+1], n.offs[3*i+2] = s, k, e
}

// set replaces pair i with (key, val).
func (n *node) set(i int, key string, val []byte) {
	s, k, e := n.appendPair(key, val)
	n.offs[3*i], n.offs[3*i+1], n.offs[3*i+2] = s, k, e
	n.reclaim()
}

// remove deletes pair i.
func (n *node) remove(i int) {
	n.offs = append(n.offs[:3*i], n.offs[3*i+3:]...)
	n.reclaim()
}

// appendPairs copies src's pairs [lo, hi) onto the end of n.
func (n *node) appendPairs(src *node, lo, hi int) {
	n.room(src.pairBytes(lo, hi))
	for i := 3 * lo; i < 3*hi; i += 3 {
		s, k, e := src.offs[i], src.offs[i+1], src.offs[i+2]
		at := uint32(len(n.arena))
		n.arena = append(n.arena, src.arena[s:e]...)
		n.offs = append(n.offs, at, at+(k-s), uint32(len(n.arena)))
	}
}

// reclaim repacks the arena once its dead bytes outnumber the live ones.
func (n *node) reclaim() {
	if live := n.pairBytes(0, n.size()); len(n.arena)-live > live {
		n.repack()
	}
}

// repack moves n's pairs into a fresh arena that holds nothing else. The
// old arena is left as it was, for whoever still holds its bytes.
func (n *node) repack() {
	p := packed(n, 0, n.size(), 0, n.epoch)
	n.arena, n.offs = p.arena, p.offs
}

// packed returns a new node of the given epoch holding copies of src's
// pairs [lo, hi), and no children. Its arena and offsets are sized for
// room pairs at the copied pairs' average size when room is the larger
// count, for exactly the copied pairs otherwise; either way the
// allocation is rounded up to its size class (slices.Grow), which costs
// no memory and leaves room for a pair or two more.
func packed(src *node, lo, hi, room int, epoch uint64) *node {
	b := src.pairBytes(lo, hi)
	if hi > lo && room > hi-lo {
		b = b * room / (hi - lo)
	}
	n := &node{
		arena: slices.Grow([]byte(nil), b),
		offs:  slices.Grow([]uint32(nil), 3*max(room, hi-lo)),
		epoch: epoch,
	}
	n.appendPairs(src, lo, hi)
	return n
}

// DB is the store. The zero value is not usable; call New.
type DB struct {
	mu       sync.RWMutex
	root     *node
	count    int
	keyBytes int64
	valBytes int64
	// epoch is bumped by View: nodes created before the bump are frozen
	// (possibly shared with a view) and are cloned on first mutation.
	epoch uint64
}

// New creates an empty database.
func New() *DB {
	return &DB{root: &node{}}
}

// mutable returns a node safe to mutate under the current epoch: n itself
// when it already belongs to this epoch, otherwise a clone whose pairs are
// packed into an arena of its own (child pointers are copied; the
// pointed-to children stay shared until they are themselves mutated). A
// leaf is cloned because a pair is about to land in it, so its clone gets
// room for a full node and the inserts that follow do not regrow it.
func (db *DB) mutable(n *node) *node {
	if n.epoch == db.epoch {
		return n
	}
	room := 0
	if n.leaf() {
		room = 2 * degree
	}
	c := packed(n, 0, n.size(), room, db.epoch)
	if n.children != nil {
		c.children = slices.Clone(n.children)
	}
	return c
}

// Len returns the number of keys.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.count
}

// Bytes reports the cumulative size of keys and values — the space
// accounting Table 3 is built from.
func (db *DB) Bytes() (keyBytes, valBytes int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.keyBytes, db.valBytes
}

// Stats describes the store: key population and tree shape. Nodes and
// Depth are computed by a walk, so Stats is a diagnostics/bench call, not a
// hot-path one.
type Stats struct {
	Keys     int
	KeyBytes int64
	ValBytes int64
	Nodes    int
	Depth    int
}

// Stats reports the current store statistics.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{Keys: db.count, KeyBytes: db.keyBytes, ValBytes: db.valBytes}
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		s.Nodes++
		if depth > s.Depth {
			s.Depth = depth
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(db.root, 1)
	return s
}

// Get returns the value for key, and whether it exists. The returned slice
// must not be modified.
func (db *DB) Get(key string) ([]byte, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return lookup(db.root, key)
}

// lookup descends from root to the value of key. It takes no lock: the
// caller either holds the store's RLock or owns an immutable view root.
func lookup(n *node, key string) ([]byte, bool) {
	for {
		i, ok := n.find(key)
		if ok {
			return n.val(i), true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
}

// Has reports whether key exists.
func (db *DB) Has(key string) bool {
	_, ok := db.Get(key)
	return ok
}

// Set stores value under key, returning true if the key already existed.
// The store copies both, so the caller may reuse their memory. A key plus
// its value may not exceed 64 MiB; Set panics on a longer pair.
func (db *DB) Set(key string, value []byte) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	replaced := db.setLocked(key, value).replaced
	return replaced
}

// KV is one key/value pair for batch insertion. SetBatch reports back
// through New whether the key was absent before the batch.
type KV struct {
	Key string
	Val []byte
	New bool
}

// SetBatch stores every pair under a single mutex acquisition — the write
// amortization Waldo's ingestion path depends on. Like Set it copies keys
// and values, so a batch may cut its keys from one shared string and its
// values from one reused buffer. Runs of ascending keys additionally skip
// the root-to-leaf descent: the insertion leaf (and the separator bounds
// that make it valid) is cached from the previous pair, so a sorted batch
// touching one region of the key space inserts in O(1) per key until the
// leaf fills. Returns the number of keys that were new.
func (db *DB) SetBatch(kvs []KV) (added int) {
	if len(kvs) == 0 {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	var at insertAt
	for idx := range kvs {
		key, value := kvs[idx].Key, kvs[idx].Val
		// Fast path: key strictly inside the cached leaf's bounds, and
		// the leaf has room for a direct insert (no split can cascade).
		// The cached leaf came out of setLocked this batch, so it already
		// belongs to the current epoch and is safe to mutate in place.
		if at.leaf != nil && at.leaf.size() < 2*degree &&
			(!at.hasLo || key > at.lo) && (!at.hasHi || key < at.hi) {
			n := at.leaf
			i, ok := n.find(key)
			if ok {
				db.replace(n, i, key, value)
				continue
			}
			db.insert(n, i, key, value)
			kvs[idx].New = true
			added++
			continue
		}
		at = db.setLocked(key, value)
		if !at.replaced {
			kvs[idx].New = true
			added++
		}
	}
	return added
}

// insert adds a new pair to leaf n at index i and counts it.
func (db *DB) insert(n *node, i int, key string, value []byte) {
	n.insert(i, key, value)
	db.count++
	db.keyBytes += int64(len(key))
	db.valBytes += int64(len(value))
}

// replace stores value for n's existing pair i. An unchanged value is
// left in place, so rewriting an index row appends nothing.
func (db *DB) replace(n *node, i int, key string, value []byte) {
	old := n.val(i)
	if bytes.Equal(old, value) {
		return
	}
	db.valBytes += int64(len(value)) - int64(len(old))
	n.set(i, key, value)
}

// insertAt remembers where setLocked landed: the leaf it inserted into and
// the separator bounds within which that leaf is the correct target for
// further inserts. leaf is nil when the key was settled in an interior
// node (replacement), which cannot seed the batch fast path.
type insertAt struct {
	leaf     *node
	lo, hi   string
	hasLo    bool
	hasHi    bool
	replaced bool
}

// setLocked inserts or replaces one key with db.mu held, maintaining the
// size counters, and reports the insertion point for batch amortization.
// Every node it is about to mutate is first made current-epoch (cloned if
// a view still shares it), so pinned views keep their frozen image.
func (db *DB) setLocked(key string, value []byte) insertAt {
	db.root = db.mutable(db.root)
	if db.root.size() >= 2*degree {
		old := db.root
		db.root = &node{children: []*node{old}, epoch: db.epoch}
		db.splitChild(db.root, 0, key)
	}
	var at insertAt
	n := db.root
	for {
		i, ok := n.find(key)
		if ok {
			db.replace(n, i, key, value)
			at.replaced = true
			if n.leaf() {
				at.leaf = n
			}
			return at
		}
		if n.leaf() {
			db.insert(n, i, key, value)
			at.leaf = n
			return at
		}
		if n.children[i].size() >= 2*degree {
			db.splitChild(n, i, key)
			if key == n.key(i) {
				db.replace(n, i, key, value)
				at.replaced = true
				at.leaf = nil
				return at
			}
			if key > n.key(i) {
				i++
			}
		}
		if i > 0 {
			at.lo, at.hasLo = n.key(i-1), true
		}
		if i < n.size() {
			at.hi, at.hasHi = n.key(i), true
		}
		n.children[i] = db.mutable(n.children[i])
		n = n.children[i]
	}
}

// splitChild splits n.children[i] (which must be full) around its median
// into two new current-epoch nodes, each with an arena of its own, and
// moves the median pair up into n. The child may hold 2·degree or
// 2·degree+1 keys — delete's merge path can briefly leave a node one over
// the cap — so the median is computed, not assumed. n must already be
// current-epoch; the child itself is only read, so a view sharing it keeps
// its frozen image. The half of a leaf that key goes into gets room for a
// full node, as a cloned leaf does; the other half is packed tight.
func (db *DB) splitChild(n *node, i int, key string) {
	child := n.children[i]
	mid := child.size() / 2
	lroom, rroom := 0, 0
	if child.leaf() {
		if key < child.key(mid) {
			lroom = 2 * degree
		} else {
			rroom = 2 * degree
		}
	}
	left := packed(child, 0, mid, lroom, db.epoch)
	right := packed(child, mid+1, child.size(), rroom, db.epoch)
	if !child.leaf() {
		left.children = slices.Clone(child.children[:mid+1])
		right.children = slices.Clone(child.children[mid+1:])
	}
	n.insert(i, child.key(mid), child.val(mid))
	n.children[i] = left
	n.children = slices.Insert(n.children, i+1, right)
}

// Delete removes key, returning whether it existed.
func (db *DB) Delete(key string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.root = db.mutable(db.root)
	removed, vlen := db.delete(db.root, key)
	if removed {
		db.count--
		db.keyBytes -= int64(len(key))
		db.valBytes -= int64(vlen)
	}
	if db.root.size() == 0 && !db.root.leaf() {
		db.root = db.root.children[0]
	}
	return removed
}

// delete removes key from the subtree rooted at n, which is guaranteed to
// have > degree keys (or be the root) and to be current-epoch. Returns
// whether removed and the removed value's length.
func (db *DB) delete(n *node, key string) (bool, int) {
	i, found := n.find(key)
	if n.leaf() {
		if !found {
			return false, 0
		}
		vlen := len(n.val(i))
		n.remove(i)
		return true, vlen
	}
	if found {
		vlen := len(n.val(i))
		// CLRS case 2: replace with the predecessor or successor from a
		// child that can spare a key, then delete that key from it.
		if n.children[i].size() > degree {
			n.children[i] = db.mutable(n.children[i])
			pk, pv := maxKV(n.children[i])
			n.set(i, pk, pv)
			db.delete(n.children[i], pk)
			return true, vlen
		}
		if n.children[i+1].size() > degree {
			n.children[i+1] = db.mutable(n.children[i+1])
			sk, sv := minKV(n.children[i+1])
			n.set(i, sk, sv)
			db.delete(n.children[i+1], sk)
			return true, vlen
		}
		// Both children minimal: merge around the key then recurse.
		db.mergeChildren(n, i)
		db.delete(n.children[i], key)
		return true, vlen
	}
	i = db.ensureChild(n, i)
	return db.delete(n.children[i], key)
}

// ensureChild guarantees n.children[i] has more than degree keys before
// descending, borrowing from a sibling or merging, and leaves the
// descended-into child current-epoch. Returns the (possibly shifted)
// child index.
func (db *DB) ensureChild(n *node, i int) int {
	n.children[i] = db.mutable(n.children[i])
	c := n.children[i]
	if c.size() > degree {
		return i
	}
	// Borrow from left sibling.
	if i > 0 && n.children[i-1].size() > degree {
		n.children[i-1] = db.mutable(n.children[i-1])
		left := n.children[i-1]
		last := left.size() - 1
		c.insert(0, n.key(i-1), n.val(i-1))
		n.set(i-1, left.key(last), left.val(last))
		left.remove(last)
		if !c.leaf() {
			c.children = slices.Insert(c.children, 0, left.children[last+1])
			left.children = left.children[:last+1]
		}
		return i
	}
	// Borrow from right sibling.
	if i < len(n.children)-1 && n.children[i+1].size() > degree {
		n.children[i+1] = db.mutable(n.children[i+1])
		right := n.children[i+1]
		c.insert(c.size(), n.key(i), n.val(i))
		n.set(i, right.key(0), right.val(0))
		right.remove(0)
		if !c.leaf() {
			c.children = append(c.children, right.children[0])
			right.children = slices.Delete(right.children, 0, 1)
		}
		return i
	}
	// Merge with a sibling.
	if i > 0 {
		db.mergeChildren(n, i-1)
		return i - 1
	}
	db.mergeChildren(n, i)
	return i
}

// mergeChildren merges children i and i+1 around key i into one new
// current-epoch node, packed into an arena of its own. Both children are
// only read, so a view sharing either keeps its frozen image.
func (db *DB) mergeChildren(n *node, i int) {
	left, right := n.children[i], n.children[i+1]
	merged := packed(left, 0, left.size(), left.size()+1+right.size(), db.epoch)
	merged.insert(merged.size(), n.key(i), n.val(i))
	merged.appendPairs(right, 0, right.size())
	if !left.leaf() {
		merged.children = append(slices.Clone(left.children), right.children...)
	}
	n.children[i] = merged
	n.remove(i)
	n.children = slices.Delete(n.children, i+1, i+2)
}

func maxKV(n *node) (string, []byte) {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	last := n.size() - 1
	return n.key(last), n.val(last)
}

func minKV(n *node) (string, []byte) {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.key(0), n.val(0)
}

// Ascend visits keys in [lo, hi) in order; fn returning false stops the
// scan. An empty hi means "to the end".
func (db *DB) Ascend(lo, hi string, fn func(key string, value []byte) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ascend(db.root, lo, hi, fn)
}

// ascend is the lock-free range walk shared by DB (under RLock) and View
// (over a frozen root).
func ascend(n *node, lo, hi string, fn func(string, []byte) bool) bool {
	i := n.search(lo)
	for ; i <= n.size(); i++ {
		if !n.leaf() {
			if !ascend(n.children[i], lo, hi, fn) {
				return false
			}
		}
		if i == n.size() {
			break
		}
		k := n.key(i)
		if k < lo {
			continue
		}
		if hi != "" && k >= hi {
			return false
		}
		if !fn(k, n.val(i)) {
			return false
		}
	}
	return true
}

// AscendPrefix visits all keys with the given prefix in order.
func (db *DB) AscendPrefix(prefix string, fn func(key string, value []byte) bool) {
	db.Ascend(prefix, prefixEnd(prefix), fn)
}

// prefixEnd returns the smallest string greater than every string with the
// prefix, or "" if there is none.
func prefixEnd(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xFF {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

// MaxInPrefix returns the greatest key carrying the prefix and its value,
// found by one bounded root-to-leaf descent — no iteration over the prefix
// range. Waldo's LatestVersion is built on it.
func (db *DB) MaxInPrefix(prefix string) (string, []byte, bool) {
	db.mu.RLock()
	k, v, ok := maxBelow(db.root, prefixEnd(prefix))
	db.mu.RUnlock()
	if !ok || !strings.HasPrefix(k, prefix) {
		return "", nil, false
	}
	return k, v, true
}

// maxBelow returns the greatest key strictly less than hi; hi == "" means
// "no upper bound" (the greatest key in the store).
func maxBelow(n *node, hi string) (string, []byte, bool) {
	var (
		bk    string
		bv    []byte
		found bool
	)
	for {
		i := n.size()
		if hi != "" {
			i = n.search(hi)
		}
		if i > 0 {
			bk, bv, found = n.key(i-1), n.val(i-1), true
		}
		if n.leaf() {
			return bk, bv, found
		}
		n = n.children[i]
	}
}

// CountPrefix counts keys with the prefix.
func (db *DB) CountPrefix(prefix string) int {
	n := 0
	db.AscendPrefix(prefix, func(string, []byte) bool { n++; return true })
	return n
}

// HasPrefix reports whether any key starts with prefix.
func (db *DB) HasPrefix(prefix string) bool {
	found := false
	db.AscendPrefix(prefix, func(string, []byte) bool { found = true; return false })
	return found
}

// Keys returns all keys with the prefix (convenience for tests/tools).
func (db *DB) Keys(prefix string) []string {
	var out []string
	db.AscendPrefix(prefix, func(k string, _ []byte) bool {
		out = append(out, k)
		return true
	})
	return out
}

// TrimPrefix is a helper for index scans: the remainder of key after
// prefix.
func TrimPrefix(key, prefix string) string { return strings.TrimPrefix(key, prefix) }
