package kvdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// waldoKey returns the i-th key of a deterministic population shaped like
// Waldo's schema (attribute rows, version, edge and label index rows), and
// its value: attribute rows carry a few bytes, index rows none.
func waldoKey(i int) (string, []byte) {
	pn, ver := uint64(i/5)*7919, uint32(i%3)
	switch i % 5 {
	case 0:
		return fmt.Sprintf("a|%016x|%08x|NAME|%08x", pn, ver, 0), []byte(fmt.Sprintf("s/obj/%d", i))
	case 1:
		return fmt.Sprintf("v|%016x|%08x", pn, ver), nil
	case 2:
		return fmt.Sprintf("i|%016x|%08x|%016x|%08x", pn, ver, pn/3, ver), nil
	case 3:
		return fmt.Sprintf("r|%016x|%08x|%016x|%08x", pn/3, ver, pn, ver), nil
	default:
		return fmt.Sprintf("n|obj-%d\x00%016x", i/5, pn), nil
	}
}

// waldoBatch returns keys [lo, hi) as one sorted batch, the way Waldo's
// ApplyBatch hands its rows to SetBatch.
func waldoBatch(lo, hi int) []KV {
	kvs := make([]KV, 0, hi-lo)
	for i := lo; i < hi; i++ {
		k, v := waldoKey(i)
		kvs = append(kvs, KV{Key: k, Val: v})
	}
	sort.Slice(kvs, func(a, b int) bool { return kvs[a].Key < kvs[b].Key })
	return kvs
}

// aliased is one key and value exactly as a read path handed them out,
// beside private copies of their bytes.
type aliased struct {
	key, keyCopy string
	val, valCopy []byte
}

func hold(k string, v []byte) aliased {
	return aliased{key: k, keyCopy: string([]byte(k)), val: v, valCopy: bytes.Clone(v)}
}

// TestArenaAliasStability pins the arena contract: keys and values read
// through Get, AscendPrefix callbacks and a View keep their bytes while
// later SetBatch, Set and Delete churn splits, borrows between and merges
// the nodes they came from — on a store built by insertion and on one
// whose leaves alias a LoadBytes image.
func TestArenaAliasStability(t *testing.T) {
	const n = 6000
	build := func() *DB {
		db := New()
		for lo := 0; lo < n; lo += 500 {
			db.SetBatch(waldoBatch(lo, lo+500))
		}
		return db
	}
	for _, tc := range []struct {
		name string
		db   func(t *testing.T) *DB
	}{
		{"new", func(*testing.T) *DB { return build() }},
		{"loadbytes", func(t *testing.T) *DB {
			db, err := LoadBytes(saveBytes(t, build()))
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db(t)
			var held []aliased
			for i := 0; i < n; i += 7 {
				k, _ := waldoKey(i)
				v, ok := db.Get(k)
				if !ok {
					t.Fatalf("Get(%q) missing", k)
				}
				held = append(held, hold(k, v))
			}
			for _, p := range []string{"a|", "n|", "v|"} {
				db.AscendPrefix(p, func(k string, v []byte) bool {
					held = append(held, hold(k, v))
					return len(held)%97 != 0
				})
			}
			view := db.View()
			view.Ascend("", "", func(k string, v []byte) bool {
				held = append(held, hold(k, v))
				return true
			})

			rng := rand.New(rand.NewSource(11))
			for round := 0; round < 6; round++ {
				// Delete most keys in a shuffled order (merges and
				// borrows), rewrite values in place, then reinsert
				// (splits) through both write paths.
				for _, i := range rng.Perm(n)[:n*3/4] {
					k, _ := waldoKey(i)
					db.Delete(k)
				}
				for i := 0; i < n; i += 3 {
					k, _ := waldoKey(i)
					db.Set(k, []byte(fmt.Sprintf("rewritten-%d-%d", round, i)))
				}
				for lo := 0; lo < n; lo += 250 {
					db.SetBatch(waldoBatch(lo, lo+250))
				}
				checkInvariants(t, db, degree-1, 2*degree+1)
			}
			for _, h := range held {
				if h.key != h.keyCopy || !bytes.Equal(h.val, h.valCopy) {
					t.Fatalf("handed-out pair changed under churn: key %q (was %q), value %q (was %q)",
						h.key, h.keyCopy, h.val, h.valCopy)
				}
			}
			if got := view.Len(); got != n {
				t.Fatalf("view holds %d keys after churn, want %d", got, n)
			}
		})
	}
}

// Digests of the Save and SaveDelta output for formatPinImages' fixed
// seeded key set, computed before the node layout was repacked: the
// snapshot and delta formats must stay byte-identical.
const (
	pinnedSave      = "54c71546573ff7b10a7992753dddde01f0ba6b153aa253de876a1581c9d60994"
	pinnedSaveDelta = "bc9e629114653dcab8c0016cabd2b20a4374a89ad3165495935a07fc749d4bb9"
)

// formatPinImages builds a seeded store, pins a base view, churns it
// (inserts, overwrites, deletes, some of them of absent keys) and returns
// the full image of the result and the delta from the base. Every choice
// comes from the seeded generator, so the images are a fixed function of
// the writers.
func formatPinImages(t *testing.T) (full, delta []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	db := New()
	churn := func(ops int) {
		for i := 0; i < ops; i++ {
			k := fmt.Sprintf("k%06d", rng.Intn(6000))
			switch op := rng.Intn(10); {
			case op < 7:
				db.Set(k, []byte(fmt.Sprintf("v%d", rng.Int63())))
			case op < 8:
				db.Set(k, nil)
			default:
				db.Delete(k)
			}
		}
	}
	churn(4000)
	base := db.View()
	churn(1500)
	cur := db.View()
	var buf bytes.Buffer
	if _, err := cur.SaveDelta(base, &buf); err != nil {
		t.Fatal(err)
	}
	return saveView(t, cur), buf.Bytes()
}

// TestArenaFormatPinned checks the snapshot and delta writers against
// golden digests, and that a LoadBytes round trip reproduces the image.
func TestArenaFormatPinned(t *testing.T) {
	full, delta := formatPinImages(t)
	digest := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	if got := digest(full); got != pinnedSave {
		t.Errorf("Save digest %s, want %s", got, pinnedSave)
	}
	if got := digest(delta); got != pinnedSaveDelta {
		t.Errorf("SaveDelta digest %s, want %s", got, pinnedSaveDelta)
	}
	loaded, err := LoadBytes(bytes.Clone(full))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, loaded), full) {
		t.Fatal("LoadBytes round trip changed the image")
	}
}

// holdsPointers reports whether memory of type t contains pointers the
// collector must trace.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.Slice:
		return true
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// heapPerPayload bounds the live heap a key costs, as a multiple of its
// key and value bytes. Packed nodes measure 1.46 after the inserts and
// 1.86 after churn on this population; entries held as a string header
// plus a slice header, each pointing at its own allocation, measured 4.1.
const heapPerPayload = 2.25

// TestArenaHeapBound inserts 200k Waldo-shaped keys through SetBatch, then
// churns the same keys — deleting half of them and reinserting them, three
// times — and checks after each phase that the live heap per key stays
// within heapPerPayload times the payload. It also checks by reflection
// that children is the only node field whose memory holds pointers: the
// arena and offset arrays are never scanned by the collector.
func TestArenaHeapBound(t *testing.T) {
	var scanned []string
	nt := reflect.TypeOf(node{})
	for i := 0; i < nt.NumField(); i++ {
		// A slice field owns its backing array: that memory holds
		// pointers only when the element type does.
		f := nt.Field(i)
		ft := f.Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if holdsPointers(ft) {
			scanned = append(scanned, f.Name)
		}
	}
	if !reflect.DeepEqual(scanned, []string{"children"}) {
		t.Fatalf("node fields whose memory holds pointers: %v, want [children]", scanned)
	}

	const n, batch = 200000, 1000
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	db := New()
	check := func(phase string) {
		t.Helper()
		if db.Len() != n {
			t.Fatalf("%s: %d keys, want %d", phase, db.Len(), n)
		}
		kb, vb := db.Bytes()
		payload := float64(kb+vb) / n
		perKey := float64(liveHeap()-before) / n
		t.Logf("%s: %.1f B heap per key, payload %.1f B (%.2fx)", phase, perKey, payload, perKey/payload)
		if perKey > heapPerPayload*payload {
			t.Fatalf("%s: %.1f B of heap per key is over %.1fx the %.1f B payload", phase, perKey, heapPerPayload, payload)
		}
	}
	for lo := 0; lo < n; lo += batch {
		db.SetBatch(waldoBatch(lo, lo+batch))
	}
	check("insert")
	rng := rand.New(rand.NewSource(5))
	for round := 1; round <= 3; round++ {
		gone := rng.Perm(n)[:n/2]
		for _, i := range gone {
			k, _ := waldoKey(i)
			db.Delete(k)
		}
		sort.Ints(gone)
		for lo := 0; lo < len(gone); lo += batch {
			kvs := make([]KV, 0, batch)
			for _, i := range gone[lo:min(lo+batch, len(gone))] {
				k, v := waldoKey(i)
				kvs = append(kvs, KV{Key: k, Val: v})
			}
			sort.Slice(kvs, func(a, b int) bool { return kvs[a].Key < kvs[b].Key })
			db.SetBatch(kvs)
		}
		check(fmt.Sprintf("churn %d", round))
	}
	runtime.KeepAlive(db)
}

// TestDeltaCorruptLeavesStoreUnchanged checks that ApplyDeltaBytes decodes
// the whole image before applying any of it: a delta cut short at any
// byte is rejected and leaves the store holding exactly its base image.
func TestDeltaCorruptLeavesStoreUnchanged(t *testing.T) {
	db := New()
	for i := 0; i < 300; i++ {
		db.Set(fmt.Sprintf("k%04d", i), []byte{byte(i)})
	}
	base := db.View()
	baseImg := saveView(t, base)
	for i := 0; i < 300; i += 3 {
		db.Set(fmt.Sprintf("k%04d", i+1000), []byte("new"))
		db.Delete(fmt.Sprintf("k%04d", i))
	}
	var buf bytes.Buffer
	if _, err := db.View().SaveDelta(base, &buf); err != nil {
		t.Fatal(err)
	}
	delta := buf.Bytes()
	for cut := 0; cut < len(delta); cut += 7 {
		re, err := LoadBytes(bytes.Clone(baseImg))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyDeltaBytes(re, bytes.Clone(delta[:cut])); err == nil {
			t.Fatalf("delta cut at %d of %d bytes accepted", cut, len(delta))
		}
		if !bytes.Equal(saveBytes(t, re), baseImg) {
			t.Fatalf("delta cut at %d of %d bytes changed the store", cut, len(delta))
		}
	}
}
