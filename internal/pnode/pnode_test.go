package pnode

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestInvalidIsZero(t *testing.T) {
	var p PNode
	if p.IsValid() {
		t.Fatal("zero PNode must be invalid")
	}
	if Invalid.IsValid() {
		t.Fatal("Invalid must not be valid")
	}
	if (Ref{}).IsValid() {
		t.Fatal("zero Ref must be invalid")
	}
}

func TestAllocatorStartsAtOne(t *testing.T) {
	a := NewAllocator()
	if got := a.Next(); got != 1 {
		t.Fatalf("first pnode = %d, want 1", got)
	}
	if got := a.Next(); got != 2 {
		t.Fatalf("second pnode = %d, want 2", got)
	}
}

func TestAllocatorNeverRecycles(t *testing.T) {
	a := NewAllocator()
	seen := make(map[PNode]bool)
	for i := 0; i < 10000; i++ {
		p := a.Next()
		if seen[p] {
			t.Fatalf("pnode %v recycled", p)
		}
		if !p.IsValid() {
			t.Fatalf("allocated pnode %v is invalid", p)
		}
		seen[p] = true
	}
}

func TestAllocatorConcurrent(t *testing.T) {
	a := NewAllocator()
	const workers, per = 8, 1000
	var mu sync.Mutex
	seen := make(map[PNode]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]PNode, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, a.Next())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, p := range local {
				if seen[p] {
					t.Errorf("duplicate pnode %v", p)
				}
				seen[p] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*per {
		t.Fatalf("allocated %d unique pnodes, want %d", len(seen), workers*per)
	}
}

func TestPrefixedAllocator(t *testing.T) {
	a := NewPrefixed(7)
	p := a.Next()
	if got := VolumePrefix(p); got != 7 {
		t.Fatalf("VolumePrefix = %d, want 7", got)
	}
	b := NewPrefixed(8)
	if VolumePrefix(b.Next()) == VolumePrefix(p) {
		t.Fatal("distinct prefixes must not collide")
	}
}

func TestPrefixedAllocatorsDisjoint(t *testing.T) {
	a, b := NewPrefixed(1), NewPrefixed(2)
	seen := make(map[PNode]bool)
	for i := 0; i < 1000; i++ {
		pa, pb := a.Next(), b.Next()
		if seen[pa] || seen[pb] || pa == pb {
			t.Fatalf("collision between prefixed allocators: %v %v", pa, pb)
		}
		seen[pa], seen[pb] = true, true
	}
}

// TestStringFormats pins the printed forms byte for byte, including the
// extremes of each width; PQL result order is the byte order of these
// strings, so a format change reorders query results.
func TestStringFormats(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{PNode(42).String(), "pn:42"},
		{PNode(0).String(), "pn:0"},
		{PNode(1).String(), "pn:1"},
		{PNode(math.MaxUint64).String(), "pn:18446744073709551615"},
		{Version(3).String(), "v3"},
		{Version(0).String(), "v0"},
		{Version(1).String(), "v1"},
		{Version(math.MaxUint32).String(), "v4294967295"},
		{Ref{PNode: 42, Version: 3}.String(), "pn:42@v3"},
		{Ref{}.String(), "pn:0@v0"},
		{Ref{PNode: 1, Version: 1}.String(), "pn:1@v1"},
		{Ref{PNode: math.MaxUint64, Version: math.MaxUint32}.String(), "pn:18446744073709551615@v4294967295"},
		{string(Ref{PNode: 7, Version: 10}.AppendTo([]byte("x\x00"))), "x\x00pn:7@v10"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestRefLessIsStrictWeakOrder(t *testing.T) {
	// Property: Less is irreflexive and asymmetric, and ordering by
	// (pnode, version) is total on distinct refs.
	f := func(p1, p2 uint64, v1, v2 uint32) bool {
		a := Ref{PNode(p1), Version(v1)}
		b := Ref{PNode(p2), Version(v2)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVolumePrefixRoundTrip(t *testing.T) {
	f := func(prefix uint16) bool {
		a := NewPrefixed(prefix)
		return VolumePrefix(a.Next()) == prefix
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
