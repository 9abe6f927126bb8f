package kvdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// checkInvariants verifies the full B-tree contract: uniform leaf depth,
// node occupancy within [minKeys, maxKeys] (root exempt from the minimum),
// sorted keys, separator ordering, three arena offsets per pair and one
// more child than keys. It returns the total key count. A freshly
// bulk-loaded tree satisfies the tight (degree, 2*degree) bounds; a
// mutated tree satisfies the operational (degree-1, 2*degree+1) bounds —
// splits leave a right sibling one short, and delete's merge can run a
// node one over until the next insert splits it.
func checkInvariants(t *testing.T, db *DB, minKeys, maxKeys int) int {
	t.Helper()
	leafDepth := -1
	count := 0
	var walk func(n *node, depth int, lo, hi string, hasLo, hasHi bool)
	walk = func(n *node, depth int, lo, hi string, hasLo, hasHi bool) {
		if len(n.offs)%3 != 0 {
			t.Fatalf("node at depth %d: %d arena offsets, not three per pair", depth, len(n.offs))
		}
		for i := 0; i < len(n.offs); i += 3 {
			if s, k, e := n.offs[i], n.offs[i+1], n.offs[i+2]; s > k || k > e || int(e) > len(n.arena) {
				t.Fatalf("node at depth %d: pair offsets %d/%d/%d outside its %d-byte arena", depth, s, k, e, len(n.arena))
			}
		}
		size := n.size()
		if depth > 0 && size < minKeys {
			t.Fatalf("non-root node at depth %d has %d keys, want >= %d", depth, size, minKeys)
		}
		if size > maxKeys {
			t.Fatalf("node at depth %d has %d keys, want <= %d", depth, size, maxKeys)
		}
		count += size
		for i := 0; i < size; i++ {
			k := n.key(i)
			if i > 0 && n.key(i-1) >= k {
				t.Fatalf("unsorted keys at depth %d: %q >= %q", depth, n.key(i-1), k)
			}
			if hasLo && k <= lo {
				t.Fatalf("key %q at depth %d violates lower separator %q", k, depth, lo)
			}
			if hasHi && k >= hi {
				t.Fatalf("key %q at depth %d violates upper separator %q", k, depth, hi)
			}
		}
		if n.leaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf at depth %d, others at %d", depth, leafDepth)
			}
			return
		}
		if len(n.children) != size+1 {
			t.Fatalf("node at depth %d: %d keys but %d children", depth, size, len(n.children))
		}
		for i, c := range n.children {
			clo, chasLo := lo, hasLo
			chi, chasHi := hi, hasHi
			if i > 0 {
				clo, chasLo = n.key(i-1), true
			}
			if i < size {
				chi, chasHi = n.key(i), true
			}
			walk(c, depth+1, clo, chi, chasLo, chasHi)
		}
	}
	walk(db.root, 0, "", "", false, false)
	if count != db.count {
		t.Fatalf("tree holds %d keys but count says %d", count, db.count)
	}
	return count
}

func saveBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBulkLoadEquivalence round-trips databases of many sizes (all the
// right-spine edge cases: empty, single leaf, exactly-full leaf, fresh
// empty rightmost leaf, multi-level promotions) through Save/Load and
// checks the loaded tree is a valid B-tree with identical contents that
// still accepts mutations.
func TestBulkLoadEquivalence(t *testing.T) {
	sizes := []int{0, 1, degree, 2 * degree, 2*degree + 1, 2*degree + 2,
		4 * degree, 100, 1000, (2*degree + 1) * (2*degree + 1), 5000}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			src := New()
			for i := 0; i < n; i++ {
				src.Set(fmt.Sprintf("k%08d", i), []byte(fmt.Sprintf("v%d", i)))
			}
			loaded, err := Load(bytes.NewReader(saveBytes(t, src)))
			if err != nil {
				t.Fatal(err)
			}
			if got := checkInvariants(t, loaded, degree, 2*degree); got != n {
				t.Fatalf("loaded %d keys, want %d", got, n)
			}
			kb, vb := loaded.Bytes()
			skb, svb := src.Bytes()
			if kb != skb || vb != svb {
				t.Fatalf("byte accounting diverged: (%d,%d) vs (%d,%d)", kb, vb, skb, svb)
			}
			if !bytes.Equal(saveBytes(t, loaded), saveBytes(t, src)) {
				t.Fatal("loaded database content differs from source")
			}
			// The loaded tree must remain a working store.
			loaded.Set("zzz-new", []byte("new"))
			if n > 0 {
				loaded.Delete("k00000000")
			}
			checkInvariants(t, loaded, degree-1, 2*degree+1)
		})
	}
}

// TestBulkLoadRandomized drives random key populations (duplicates in the
// source collapse via Set) through the bulk loader and cross-checks every
// read path against the source.
func TestBulkLoadRandomized(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := New()
		n := rng.Intn(3000)
		for i := 0; i < n; i++ {
			src.Set(fmt.Sprintf("%x", rng.Intn(4096)), []byte{byte(i)})
		}
		loaded, err := Load(bytes.NewReader(saveBytes(t, src)))
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, loaded, degree, 2*degree)
		src.Ascend("", "", func(k string, v []byte) bool {
			got, ok := loaded.Get(k)
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("seed %d: Get(%q) = %q,%v want %q", seed, k, got, ok, v)
			}
			return true
		})
		if loaded.Len() != src.Len() {
			t.Fatalf("seed %d: loaded %d keys, want %d", seed, loaded.Len(), src.Len())
		}
	}
}

// TestBulkLoaderOutOfOrder feeds the loader a violating key and checks it
// refuses (Load then falls back to Set-based insertion for the remainder).
func TestBulkLoaderOutOfOrder(t *testing.T) {
	var bl bulkLoader
	if !bl.add("b", nil) || !bl.add("c", nil) {
		t.Fatal("ascending adds refused")
	}
	if bl.add("a", nil) {
		t.Fatal("out-of-order add accepted")
	}
	if bl.add("c", nil) {
		t.Fatal("duplicate add accepted")
	}
	db := New()
	bl.into(db)
	if db.Len() != 2 {
		t.Fatalf("prefix holds %d keys, want 2", db.Len())
	}
}

// TestBulkLoadDenserThanInsert pins the bulk loader's fill-factor win: a
// loaded tree must not use more nodes than the insertion-built source it
// came from (splits leave insertion-built leaves half full; the bulk
// builder closes them full).
func TestBulkLoadDenserThanInsert(t *testing.T) {
	src := New()
	for i := 0; i < 20000; i++ {
		src.Set(fmt.Sprintf("k%08d", i), nil)
	}
	loaded, err := Load(bytes.NewReader(saveBytes(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	ss, ls := src.Stats(), loaded.Stats()
	if ls.Nodes > ss.Nodes {
		t.Fatalf("bulk-loaded tree has %d nodes, insertion-built has %d", ls.Nodes, ss.Nodes)
	}
	if ls.Depth > ss.Depth {
		t.Fatalf("bulk-loaded tree depth %d exceeds insertion-built %d", ls.Depth, ss.Depth)
	}
}

// TestChurnOccupancyBounded is the regression test for the split condition
// fix: delete's merge path can leave a node at 2*degree+1 keys, and the old
// `== 2*degree` split check would then never split it again, so an
// insert-heavy workload could grow leaves without bound. Bulk-loaded trees
// (every node exactly full) trigger the merge case immediately, so churn
// one and check occupancy stays bounded.
func TestChurnOccupancyBounded(t *testing.T) {
	src := New()
	for i := 0; i < 5000; i++ {
		src.Set(fmt.Sprintf("k%08d", i), nil)
	}
	db, err := Load(bytes.NewReader(saveBytes(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30000; i++ {
		k := fmt.Sprintf("k%08d", rng.Intn(8000))
		if rng.Intn(3) == 0 {
			db.Delete(k)
		} else {
			db.Set(k, []byte{1})
		}
	}
	checkInvariants(t, db, degree-1, 2*degree+1)
}

// BenchmarkKvdbLoad measures cold-start snapshot loading: the bulk-build
// path Load uses, against the per-pair Set insertion the old Load did.
func BenchmarkKvdbLoad(b *testing.B) {
	const n = 200000
	src := New()
	for i := 0; i < n; i++ {
		src.Set(fmt.Sprintf("a|%016x|%08x|NAME|%08x", i, 1, 0), []byte("value-payload"))
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()

	b.Run("bulk", func(b *testing.B) {
		b.SetBytes(int64(len(snap)))
		for i := 0; i < b.N; i++ {
			db, err := Load(bytes.NewReader(snap))
			if err != nil {
				b.Fatal(err)
			}
			if db.Len() != n {
				b.Fatalf("loaded %d keys, want %d", db.Len(), n)
			}
		}
	})
	b.Run("set", func(b *testing.B) {
		b.SetBytes(int64(len(snap)))
		for i := 0; i < b.N; i++ {
			db := New()
			src.Ascend("", "", func(k string, v []byte) bool {
				db.Set(k, v)
				return true
			})
			if db.Len() != n {
				b.Fatalf("inserted %d keys, want %d", db.Len(), n)
			}
		}
	})
}
