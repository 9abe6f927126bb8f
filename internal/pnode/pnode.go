// Package pnode defines provenance node identity: pnode numbers, object
// versions, and object references.
//
// A pnode number is a unique ID assigned to an object at creation time. It
// is a handle for the object's provenance, akin to an inode number, but
// never recycled (PASSv2 paper, §5.2). A version distinguishes the states
// an object passes through as cycle breaking freezes it.
package pnode

import (
	"strconv"
	"sync/atomic"
)

// PNode is a pnode number: a unique, never-recycled identifier for a
// provenance-bearing object. The zero value is invalid and means "no
// object".
type PNode uint64

// Invalid is the zero PNode; no allocated object ever has it.
const Invalid PNode = 0

// IsValid reports whether p identifies an allocated object.
func (p PNode) IsValid() bool { return p != Invalid }

// String formats the pnode as the paper's tools print it, e.g. "pn:42".
func (p PNode) String() string {
	var b [len("pn:18446744073709551615")]byte
	return string(p.appendTo(b[:0]))
}

func (p PNode) appendTo(b []byte) []byte {
	return strconv.AppendUint(append(b, "pn:"...), uint64(p), 10)
}

// Version numbers an object's state. Versions start at 1 when the object
// is created and increase by one on every freeze. Version 0 means
// "unversioned / any version" in contexts that permit it.
type Version uint32

// String formats the version, e.g. "v3".
func (v Version) String() string {
	var b [len("v4294967295")]byte
	return string(v.appendTo(b[:0]))
}

func (v Version) appendTo(b []byte) []byte {
	return strconv.AppendUint(append(b, 'v'), uint64(v), 10)
}

// Ref identifies one version of one object: the (pnode, version) pair
// returned by pass_read and embedded in cross-reference provenance records.
type Ref struct {
	PNode   PNode
	Version Version
}

// IsValid reports whether the reference names an allocated object.
func (r Ref) IsValid() bool { return r.PNode.IsValid() }

// String formats the reference, e.g. "pn:42@v3".
func (r Ref) String() string {
	var b [len("pn:18446744073709551615@v4294967295")]byte
	return string(r.AppendTo(b[:0]))
}

// AppendTo appends the String form of r to b and returns the result; the
// PQL executor renders result rows through it into one reused buffer.
func (r Ref) AppendTo(b []byte) []byte {
	return r.Version.appendTo(append(r.PNode.appendTo(b), '@'))
}

// Less orders references by pnode then version, for deterministic output.
func (r Ref) Less(o Ref) bool {
	if r.PNode != o.PNode {
		return r.PNode < o.PNode
	}
	return r.Version < o.Version
}

// Allocator hands out pnode numbers. It is safe for concurrent use. The
// zero value is ready to use and starts numbering at 1.
//
// In PASSv2 each PASS volume allocates pnodes from its own space; to keep
// cross-volume references unambiguous the simulation gives each volume an
// Allocator seeded with a distinct high-bits prefix (see NewPrefixed).
type Allocator struct {
	next atomic.Uint64
}

// NewAllocator returns an allocator whose first pnode is 1.
func NewAllocator() *Allocator { return &Allocator{} }

// prefixShift leaves 48 bits of per-volume pnode space.
const prefixShift = 48

// NewPrefixed returns an allocator whose pnodes carry the given volume
// prefix in their top 16 bits, so pnodes from different volumes never
// collide. Prefix 0 yields plain small integers.
func NewPrefixed(prefix uint16) *Allocator {
	a := &Allocator{}
	a.next.Store(uint64(prefix) << prefixShift)
	return a
}

// Next allocates and returns a fresh pnode number.
func (a *Allocator) Next() PNode {
	return PNode(a.next.Add(1))
}

// SeedPast advances the allocator so every future pnode is strictly
// greater than pn. Restarted daemons use it to resume allocation past
// everything a previous process handed out (pnodes are never recycled,
// §5.2); seeding below the current position is a no-op.
func (a *Allocator) SeedPast(pn PNode) {
	for {
		cur := a.next.Load()
		if cur >= uint64(pn) {
			return
		}
		if a.next.CompareAndSwap(cur, uint64(pn)) {
			return
		}
	}
}

// VolumePrefix extracts the volume prefix embedded in a pnode allocated by
// a NewPrefixed allocator.
func VolumePrefix(p PNode) uint16 {
	return uint16(uint64(p) >> prefixShift)
}
