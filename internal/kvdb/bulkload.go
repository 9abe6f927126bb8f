package kvdb

// Bottom-up bulk construction for pair streams arriving in strictly
// ascending key order — the cold-start path Load runs on every snapshot.
// Inserting n sorted pairs through Set costs n root-to-leaf descents
// (O(n log n) comparisons and a cache-hostile walk per pair); the builder
// instead grows the tree along its right spine: each pair lands in the
// rightmost leaf with zero comparisons, a full leaf is closed by promoting
// the arriving pair to its parent as the separator, and closed nodes are
// never touched again. Every node except the rightmost at each level ends
// exactly full (2·degree keys), so the loaded tree is also shallower and
// denser than an insertion-built one.

import "slices"

// bulkLoader accumulates ascending pairs and finishes into a valid B-tree.
// The zero value is ready to use and copies every pair it is given; with
// src set, pairs added by position let each leaf alias src instead.
type bulkLoader struct {
	// src is the image addAt positions refer to.
	src []byte
	// base is where the open leaf's window on src starts, or -1 once the
	// leaf holds a copied pair (its arena is then its own).
	base int
	// spine[0] is the leaf currently being filled; spine[h] is the open
	// node at height h whose rightmost child is spine[h-1]. All other
	// nodes are closed and full.
	spine    []*node
	lastKey  string
	count    int
	keyBytes int64
	valBytes int64
}

// add appends one pair, copying its bytes. Keys must be strictly
// ascending; add reports false (and stores nothing) when the order is
// violated, so the caller can fall back to ordinary insertion.
func (l *bulkLoader) add(key string, val []byte) bool { return l.addAt(key, val, -1) }

// addAt is add for a pair whose key starts at offset at of l.src with its
// value right after it; at < 0 means the pair is not in src.
func (l *bulkLoader) addAt(key string, val []byte, at int) bool {
	if l.spine == nil {
		l.spine = append(l.spine, newLeaf())
	} else if key <= l.lastKey {
		return false
	}
	l.lastKey = key
	l.count++
	l.keyBytes += int64(len(key))
	l.valBytes += int64(len(val))
	leaf := l.spine[0]
	if leaf.size() < 2*degree {
		l.fill(leaf, key, val, at)
		return true
	}
	// Leaf full: the arriving pair becomes the parent separator and a
	// fresh rightmost leaf opens.
	fresh := newLeaf()
	l.spine[0] = fresh
	l.promote(1, key, val, leaf, fresh)
	return true
}

// newLeaf allocates a leaf with offsets for a full complement of pairs up
// front: bulk-built leaves almost all end exactly full, so sizing them
// once avoids the append-growth reallocation (and the GC churn it feeds).
func newLeaf() *node { return &node{offs: make([]uint32, 0, 3*2*degree)} }

// fill appends a pair to the open leaf. A pair that lies in src widens the
// leaf's window on src to cover it — the length headers between pairs
// ride along as dead bytes — so the leaf's arena is src itself, capped at
// the window so that a later append reallocates rather than write into
// src. Any other pair is copied, and the leaf owns its arena from then on.
func (l *bulkLoader) fill(leaf *node, key string, val []byte, at int) {
	if leaf.size() == 0 {
		l.base = at
	}
	if at < 0 || l.base < 0 {
		l.base = -1
		leaf.insert(leaf.size(), key, val)
		return
	}
	end := at + len(key) + len(val)
	leaf.arena = l.src[l.base:end:end]
	leaf.offs = append(leaf.offs, uint32(at-l.base), uint32(at+len(key)-l.base), uint32(end-l.base))
}

// promote installs (key, val) as a separator at height h, between the
// just-closed node and the freshly opened one, copying the pair into the
// interior node's arena. A full parent closes in turn, promoting the
// separator another level up.
func (l *bulkLoader) promote(h int, key string, val []byte, closed, fresh *node) {
	if h == len(l.spine) {
		root := &node{children: []*node{closed, fresh}}
		root.insert(0, key, val)
		l.spine = append(l.spine, root)
		return
	}
	n := l.spine[h]
	if n.size() < 2*degree {
		n.insert(n.size(), key, val)
		n.children = append(n.children, fresh)
		return
	}
	up := &node{children: []*node{fresh}}
	l.spine[h] = up
	l.promote(h+1, key, val, n, up)
}

// finish rebalances the right spine (the only nodes that may be under-full,
// including a possible cascade of zero-key one-child nodes left by nested
// promotions) and returns the completed root. The loader must not be reused.
func (l *bulkLoader) finish() *node {
	if l.spine == nil {
		return &node{}
	}
	root := l.spine[len(l.spine)-1]
	l.spine = nil
	// Walk the last-child path top-down, fixing each under-full child before
	// descending into it. The invariant that makes one redistribution always
	// sufficient: every non-last child of a path node is a closed node and
	// therefore exactly full (2·degree keys), so pooling it with the
	// separator and the under-full child yields between 2·degree+1 and
	// 3·degree keys — always splittable into two legal nodes. The path node
	// itself has at least one key (the root by construction, fixed nodes at
	// least degree), so the left sibling always exists.
	for n := root; !n.leaf(); n = n.children[len(n.children)-1] {
		i := len(n.children) - 1
		last := n.children[i]
		if last.size() >= degree {
			continue
		}
		left := n.children[i-1]
		pool := packed(left, 0, left.size(), 0, 0)
		pool.insert(pool.size(), n.key(i-1), n.val(i-1))
		pool.appendPairs(last, 0, last.size())
		mid := pool.size() / 2
		newLeft := packed(pool, 0, mid, 0, 0)
		newLast := packed(pool, mid+1, pool.size(), 0, 0)
		n.set(i-1, pool.key(mid), pool.val(mid))
		if !left.leaf() {
			children := append(slices.Clone(left.children), last.children...)
			newLeft.children = slices.Clone(children[:mid+1])
			newLast.children = children[mid+1:]
		}
		n.children[i-1], n.children[i] = newLeft, newLast
	}
	return root
}

// into installs the built tree into db, replacing its contents. db must be
// freshly created (no views pinned, no concurrent users). The store's
// epoch moves past the built nodes', freezing them: a leaf whose arena
// aliases the loaded image is cloned into an arena of its own on its
// first mutation, like a node a view shares.
func (l *bulkLoader) into(db *DB) {
	count, keyBytes, valBytes := l.count, l.keyBytes, l.valBytes
	db.root = l.finish()
	db.count = count
	db.keyBytes = keyBytes
	db.valBytes = valBytes
	db.epoch++
}
