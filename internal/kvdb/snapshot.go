package kvdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// zeroCopyString views data's bytes as a string without copying. LoadBytes
// owns its image by contract (the caller hands it over and nothing ever
// writes to it again), so keys carved from it stay valid for as long as
// the loaded leaves alias it; this skips a whole-image copy on the
// recovery path, where restart latency is the budget. ApplyDeltaBytes
// reads through it only while it runs: the store copies what it keeps.
func zeroCopyString(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	return unsafe.String(&data[0], len(data))
}

// Snapshot format: magic, count, then (keyLen, key, valLen, val)* in key
// order. Loading bulk-inserts in order, which keeps the tree balanced.

var snapshotMagic = []byte("PASSKVDB1\n")

// ErrBadSnapshot reports an unreadable snapshot stream.
var ErrBadSnapshot = errors.New("kvdb: bad snapshot")

// Save writes a point-in-time snapshot of the database to w. The image is
// consistent even with a concurrent writer: Save pins a View first, so the
// header count and the pair stream describe the same frozen tree.
func (db *DB) Save(w io.Writer) error { return db.View().Save(w) }

// Save writes the view's frozen image to w in the snapshot format.
func (v *View) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(v.count))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var failed error
	v.Ascend("", "", func(k string, v []byte) bool {
		var lens [8]byte
		binary.LittleEndian.PutUint32(lens[:4], uint32(len(k)))
		binary.LittleEndian.PutUint32(lens[4:], uint32(len(v)))
		if _, err := bw.Write(lens[:]); err != nil {
			failed = err
			return false
		}
		if _, err := bw.WriteString(k); err != nil {
			failed = err
			return false
		}
		if _, err := bw.Write(v); err != nil {
			failed = err
			return false
		}
		return true
	})
	if failed != nil {
		return failed
	}
	return bw.Flush()
}

// Load reads a snapshot written by Save into a fresh database.
func Load(r io.Reader) (*DB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return LoadBytes(data)
}

// LoadBytes reads a snapshot image into a fresh database, taking
// ownership of data: the caller must not modify it afterwards, because
// the loaded leaves alias it rather than copying — each leaf's arena is
// the stretch of the image that holds its pairs, so the snapshot becomes
// the database's storage until a leaf is first mutated and packs its
// pairs into an arena of its own. Save streams pairs in key order, so
// loading builds the tree bottom-up along its right spine (see
// bulkload.go): O(1) per pair, no descents, and every node but the
// rightmost per level ends exactly full. A stream that violates the key
// order (not something Save produces) falls back to ordinary insertion
// for the out-of-order remainder.
func LoadBytes(data []byte) (*DB, error) {
	if len(data) < len(snapshotMagic)+8 {
		return nil, fmt.Errorf("%w: truncated header", ErrBadSnapshot)
	}
	if string(data[:len(snapshotMagic)]) != string(snapshotMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	count := binary.LittleEndian.Uint64(data[len(snapshotMagic):])
	data = data[len(snapshotMagic)+8:]
	sdata := zeroCopyString(data)
	db := New()
	var (
		bl      = bulkLoader{src: data}
		bulking = true
		pos     int
	)
	for i := uint64(0); i < count; i++ {
		if pos+8 > len(data) {
			return nil, fmt.Errorf("%w: truncated at pair %d", ErrBadSnapshot, i)
		}
		klen := int(binary.LittleEndian.Uint32(data[pos:]))
		vlen := int(binary.LittleEndian.Uint32(data[pos+4:]))
		if klen > 1<<24 || klen+vlen > maxPair {
			return nil, fmt.Errorf("%w: implausible lengths", ErrBadSnapshot)
		}
		pos += 8
		if pos+klen+vlen > len(data) {
			return nil, fmt.Errorf("%w: truncated at pair %d", ErrBadSnapshot, i)
		}
		key := sdata[pos : pos+klen]
		val := data[pos+klen : pos+klen+vlen : pos+klen+vlen]
		if vlen == 0 {
			val = nil
		}
		at := pos
		pos += klen + vlen
		if bulking {
			if bl.addAt(key, val, at) {
				continue
			}
			bl.into(db) // out-of-order stream: finish the prefix, Set the rest
			bulking = false
		}
		db.Set(key, val)
	}
	if bulking {
		bl.into(db)
	}
	return db, nil
}
