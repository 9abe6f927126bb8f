package kvdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Delta streams: the incremental counterpart of the snapshot format. A
// delta records how one view differs from an earlier view of the same
// store — set ops for keys inserted or changed, delete tombstones for keys
// removed — so a checkpoint chain can persist O(changed keys) instead of
// O(database) per generation.
//
// Format: magic, then tagged ops in key order ('S' klen vlen key val for a
// set, 'D' klen key for a tombstone), then an 'E' trailer carrying the set
// and delete counts for end-to-end validation. Integrity of the file as a
// whole is the checkpoint manifest's job (size + CRC), as with snapshots.
//
// Enumeration exploits the store's epoch-tagged copy-on-write nodes: every
// mutation after a view is pinned clones the nodes it touches into a newer
// epoch, so two views of one store share every untouched subtree by
// pointer. SaveDelta walks both trees as merged ordered streams and skips
// any subtree the views share, which bounds the walk to the mutated
// fringe (plus structural neighbors) rather than the whole key space.

var deltaMagic = []byte("PASSKVDD1\n")

// ErrBadDelta reports an unreadable delta stream.
var ErrBadDelta = errors.New("kvdb: bad delta")

// ErrDeltaBase reports a base view SaveDelta cannot diff against: nil, a
// view of a different DB (including the reloaded incarnation of the same
// data after a restart), or a view newer than the one being saved.
var ErrDeltaBase = errors.New("kvdb: invalid delta base view")

// DeltaStats counts the operations in a delta stream.
type DeltaStats struct {
	Sets    int64
	Deletes int64
}

// SaveDelta writes to w the operations that transform base's image into
// v's: sets for keys added or changed since base, tombstones for keys
// deleted. base must be an earlier View of the same DB value (the
// same-process identity check behind checkpoint delta generations);
// otherwise ErrDeltaBase is returned and nothing is written.
func (v *View) SaveDelta(base *View, w io.Writer) (DeltaStats, error) {
	var st DeltaStats
	if base == nil || base.db == nil || base.db != v.db {
		return st, fmt.Errorf("%w: not a view of the same database", ErrDeltaBase)
	}
	if base.epoch > v.epoch {
		return st, fmt.Errorf("%w: base epoch %d is newer than view epoch %d", ErrDeltaBase, base.epoch, v.epoch)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(deltaMagic); err != nil {
		return st, err
	}
	var lens [8]byte
	emitSet := func(k string, val []byte) error {
		if err := bw.WriteByte('S'); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(lens[:4], uint32(len(k)))
		binary.LittleEndian.PutUint32(lens[4:], uint32(len(val)))
		if _, err := bw.Write(lens[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(k); err != nil {
			return err
		}
		_, err := bw.Write(val)
		st.Sets++
		return err
	}
	emitDel := func(k string) error {
		if err := bw.WriteByte('D'); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(lens[:4], uint32(len(k)))
		if _, err := bw.Write(lens[:4]); err != nil {
			return err
		}
		_, err := bw.WriteString(k)
		st.Deletes++
		return err
	}
	if err := diffViews(v, base, emitSet, emitDel); err != nil {
		return st, err
	}
	if err := bw.WriteByte('E'); err != nil {
		return st, err
	}
	binary.LittleEndian.PutUint64(lens[:], uint64(st.Sets))
	if _, err := bw.Write(lens[:]); err != nil {
		return st, err
	}
	binary.LittleEndian.PutUint64(lens[:], uint64(st.Deletes))
	if _, err := bw.Write(lens[:]); err != nil {
		return st, err
	}
	return st, bw.Flush()
}

// diffViews runs the merged ordered walk over cur's and base's frozen
// trees, invoking set for every key whose value is new or changed in cur
// and del for every key present in base but absent from cur.
func diffViews(cur, base *View, set func(string, []byte) error, del func(string) error) error {
	ci := newDeltaIter(cur.root)
	bi := newDeltaIter(base.root)
	for {
		cp, ck, cv, cSub, cOK := ci.peek()
		bp, bk, bv, bSub, bOK := bi.peek()
		switch {
		case !cOK && !bOK:
			return nil
		case !cOK:
			// cur exhausted: everything left in base was deleted.
			if bp {
				if err := del(bk); err != nil {
					return err
				}
				bi.advance()
			} else {
				bi.expand()
			}
		case !bOK:
			// base exhausted: everything left in cur is new.
			if cp {
				if err := set(ck, cv); err != nil {
					return err
				}
				ci.advance()
			} else {
				ci.expand()
			}
		case !cp && !bp:
			// Both streams are positioned at whole subtrees. Identical
			// pointers mean a shared, untouched subtree — the prune that
			// makes deltas O(changed), not O(database). Different nodes:
			// unpack whichever starts earlier in the key order so the
			// streams can realign on shared grandchildren.
			if cSub == bSub {
				ci.advance()
				bi.advance()
				continue
			}
			if subtreeMin(cSub) <= subtreeMin(bSub) {
				ci.expand()
			} else {
				bi.expand()
			}
		case !cp:
			// cur at a subtree, base at a key: base's key is a delete
			// candidate only if it precedes everything in the subtree.
			if subtreeMin(cSub) <= bk {
				ci.expand()
			} else {
				if err := del(bk); err != nil {
					return err
				}
				bi.advance()
			}
		case !bp:
			if subtreeMin(bSub) <= ck {
				bi.expand()
			} else {
				if err := set(ck, cv); err != nil {
					return err
				}
				ci.advance()
			}
		default:
			switch {
			case ck == bk:
				if !bytes.Equal(cv, bv) {
					if err := set(ck, cv); err != nil {
						return err
					}
				}
				ci.advance()
				bi.advance()
			case ck < bk:
				if err := set(ck, cv); err != nil {
					return err
				}
				ci.advance()
			default:
				if err := del(bk); err != nil {
					return err
				}
				bi.advance()
			}
		}
	}
}

// deltaFrame is one node being walked: pos indexes the node's in-order
// element sequence. For an interior node with m keys that sequence is
// child0, key0, child1, key1, …, childm (length 2m+1, children at even
// positions); a leaf's sequence is just its keys.
type deltaFrame struct {
	n   *node
	pos int
}

// deltaIter yields a tree's elements in key order, exposing pending
// subtrees unexpanded so the diff can skip or descend them.
type deltaIter struct {
	stack []deltaFrame
}

func newDeltaIter(root *node) *deltaIter {
	return &deltaIter{stack: []deltaFrame{{n: root}}}
}

// peek reports the next element: a key/value pair (isPair true) or an
// unexpanded subtree. ok is false when the walk is exhausted.
func (it *deltaIter) peek() (isPair bool, k string, v []byte, sub *node, ok bool) {
	for len(it.stack) > 0 {
		f := &it.stack[len(it.stack)-1]
		n := f.n
		if n.leaf() {
			if f.pos < n.size() {
				return true, n.key(f.pos), n.val(f.pos), nil, true
			}
		} else if f.pos <= 2*n.size() {
			if f.pos%2 == 0 {
				return false, "", nil, n.children[f.pos/2], true
			}
			i := (f.pos - 1) / 2
			return true, n.key(i), n.val(i), nil, true
		}
		it.stack = it.stack[:len(it.stack)-1]
	}
	return false, "", nil, nil, false
}

// advance consumes the peeked element without descending into it: past a
// pair, or past a whole (shared, skippable) subtree.
func (it *deltaIter) advance() { it.stack[len(it.stack)-1].pos++ }

// expand descends into the peeked subtree: its elements are yielded
// individually before the walk resumes after it.
func (it *deltaIter) expand() {
	f := &it.stack[len(it.stack)-1]
	child := f.n.children[f.pos/2]
	f.pos++
	it.stack = append(it.stack, deltaFrame{n: child})
}

// subtreeMin returns the smallest key in a subtree. Subtrees handed to it
// are non-root nodes of a valid B-tree and therefore non-empty.
func subtreeMin(n *node) string {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.key(0)
}

// ApplyDelta reads a delta stream written by SaveDelta and applies it to
// db, which must hold the image the delta's base view described (loading
// the base snapshot and applying its delta chain in order reproduces the
// newest view byte-for-byte).
func ApplyDelta(db *DB, r io.Reader) (DeltaStats, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return DeltaStats{}, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	return ApplyDeltaBytes(db, data)
}

// deltaBatch bounds the run of set ops ApplyDeltaBytes hands SetBatch at
// once.
const deltaBatch = 512

// ApplyDeltaBytes applies a delta image to db. The whole image is decoded
// and checked against its trailer before anything is applied, so a delta
// that fails to decode leaves db as it was. Ops are then applied in
// stream order, runs of sets through SetBatch: the stream is in key
// order, so the batch's cached insertion leaf spares most descents. Keys
// and values are copied into the store, so data is free again once it
// returns.
func ApplyDeltaBytes(db *DB, data []byte) (DeltaStats, error) {
	st, err := walkDelta(data, nil)
	if err != nil {
		return st, err
	}
	batch := make([]KV, 0, min(deltaBatch, st.Sets))
	walkDelta(data, func(key string, val []byte, del bool) {
		if del || len(batch) == cap(batch) {
			db.SetBatch(batch)
			batch = batch[:0]
		}
		if del {
			db.Delete(key)
		} else {
			batch = append(batch, KV{Key: key, Val: val})
		}
	})
	db.SetBatch(batch)
	return st, nil
}

// walkDelta decodes a delta image, passing each op in stream order to op
// (when non-nil): a set with its key and value, or a tombstone (del true)
// with its key. Keys and values alias data.
func walkDelta(data []byte, op func(key string, val []byte, del bool)) (DeltaStats, error) {
	var st DeltaStats
	if len(data) < len(deltaMagic) {
		return st, fmt.Errorf("%w: truncated header", ErrBadDelta)
	}
	if string(data[:len(deltaMagic)]) != string(deltaMagic) {
		return st, fmt.Errorf("%w: bad magic", ErrBadDelta)
	}
	data = data[len(deltaMagic):]
	sdata := zeroCopyString(data)
	pos := 0
	for {
		if pos >= len(data) {
			return st, fmt.Errorf("%w: missing trailer", ErrBadDelta)
		}
		tag := data[pos]
		pos++
		switch tag {
		case 'S':
			if pos+8 > len(data) {
				return st, fmt.Errorf("%w: truncated set at op %d", ErrBadDelta, st.Sets+st.Deletes)
			}
			klen := int(binary.LittleEndian.Uint32(data[pos:]))
			vlen := int(binary.LittleEndian.Uint32(data[pos+4:]))
			if klen > 1<<24 || klen+vlen > maxPair {
				return st, fmt.Errorf("%w: implausible lengths", ErrBadDelta)
			}
			pos += 8
			if pos+klen+vlen > len(data) {
				return st, fmt.Errorf("%w: truncated set at op %d", ErrBadDelta, st.Sets+st.Deletes)
			}
			key := sdata[pos : pos+klen]
			val := data[pos+klen : pos+klen+vlen : pos+klen+vlen]
			if vlen == 0 {
				val = nil
			}
			pos += klen + vlen
			if op != nil {
				op(key, val, false)
			}
			st.Sets++
		case 'D':
			if pos+4 > len(data) {
				return st, fmt.Errorf("%w: truncated delete at op %d", ErrBadDelta, st.Sets+st.Deletes)
			}
			klen := int(binary.LittleEndian.Uint32(data[pos:]))
			if klen > 1<<24 {
				return st, fmt.Errorf("%w: implausible lengths", ErrBadDelta)
			}
			pos += 4
			if pos+klen > len(data) {
				return st, fmt.Errorf("%w: truncated delete at op %d", ErrBadDelta, st.Sets+st.Deletes)
			}
			if op != nil {
				op(sdata[pos:pos+klen], nil, true)
			}
			pos += klen
			st.Deletes++
		case 'E':
			if pos+16 != len(data) {
				return st, fmt.Errorf("%w: %d bytes after trailer", ErrBadDelta, len(data)-pos-16)
			}
			sets := binary.LittleEndian.Uint64(data[pos:])
			dels := binary.LittleEndian.Uint64(data[pos+8:])
			if int64(sets) != st.Sets || int64(dels) != st.Deletes {
				return st, fmt.Errorf("%w: trailer says %d sets / %d deletes, stream held %d / %d",
					ErrBadDelta, sets, dels, st.Sets, st.Deletes)
			}
			return st, nil
		default:
			return st, fmt.Errorf("%w: unknown op tag %#x", ErrBadDelta, tag)
		}
	}
}
