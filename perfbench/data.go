package main

import (
	"fmt"
	"math/rand"

	"passv2/internal/pnode"
	"passv2/internal/record"
)

// dagVolume is the pnode volume prefix of the build-shaped DAG. It is
// apart from the daemon's phantom-object space (0xFFFE), so records the
// benchmark stages directly never collide with identities mkobj mints.
const dagVolume = 0x0001

// The DAG's shape is internal/workload.Compile's model of the paper's
// Linux-compile benchmark at scale 0.5: a tar process unpacks a tarball
// into a header pool and one source per translation unit; one cc
// process per unit reads its source and compileIncludes of the
// compileHeaders headers and writes an object file; one ld process reads
// every object and writes the image. Compile's scale knob shrinks only
// the unit count (120 at scale 1); at 0.5 a DAG holds twice as many
// builds, so image-rooted queries are about 2% of the query texts and a
// p99 falls among them rather than on the edge between query shapes.
const (
	compileUnits    = 60 // translation units per build
	compileHeaders  = 30 // shared header pool per build
	compileIncludes = 20 // headers each unit includes
)

// dag is a seeded, build-shaped provenance graph of several independent
// builds, each shaped as Compile models one. Every node carries NAME and
// TYPE records; edges are INPUT records from what was written to the
// process that wrote it, and from a process to what it read.
type dag struct {
	recs    []record.Record
	roots   []pnode.Ref // the headers, which sessions' first versions depend on
	headers []string
	sources []string
	objects []string
	images  []string
}

// buildDAG generates `builds` builds. The seed chooses which headers each
// unit includes (Compile slides a window over the pool; the count is the
// same), never how many nodes or edges there are, so every seed gives
// the same number of records. The same seed and size always give the
// same records in the same order; each build's image comes last.
func buildDAG(seed int64, builds int) *dag {
	rng := rand.New(rand.NewSource(seed))
	d := &dag{}
	next := uint64(1)
	node := func(name, typ string) pnode.Ref {
		ref := pnode.Ref{PNode: pnode.PNode(uint64(dagVolume)<<48 | next), Version: 1}
		next++
		d.recs = append(d.recs,
			record.New(ref, record.AttrName, record.StringVal(name)),
			record.New(ref, record.AttrType, record.StringVal(typ)))
		return ref
	}
	input := func(to, from pnode.Ref) { d.recs = append(d.recs, record.Input(to, from)) }

	for b := 0; b < builds; b++ {
		dir := fmt.Sprintf("/b%d", b)
		tarball := node(dir+"/linux.tar", record.TypeFile)
		tar := node("/usr/bin/tar", record.TypeProc)
		input(tar, tarball)
		headers := make([]pnode.Ref, compileHeaders)
		for i := range headers {
			d.headers = append(d.headers, fmt.Sprintf("%s/src/h%02d.h", dir, i))
			headers[i] = node(d.headers[len(d.headers)-1], record.TypeFile)
			input(headers[i], tar)
		}
		d.roots = append(d.roots, headers...)
		objects := make([]pnode.Ref, compileUnits)
		for u := range objects {
			d.sources = append(d.sources, fmt.Sprintf("%s/src/u%04d.c", dir, u))
			src := node(d.sources[len(d.sources)-1], record.TypeFile)
			input(src, tar)
			cc := node("/usr/bin/cc", record.TypeProc)
			input(cc, src)
			for _, h := range rng.Perm(compileHeaders)[:compileIncludes] {
				input(cc, headers[h])
			}
			d.objects = append(d.objects, fmt.Sprintf("%s/obj/u%04d.o", dir, u))
			objects[u] = node(d.objects[len(d.objects)-1], record.TypeFile)
			input(objects[u], cc)
		}
		ld := node("/usr/bin/ld", record.TypeProc)
		for _, o := range objects {
			input(ld, o)
		}
		d.images = append(d.images, dir+"/vmlinux")
		input(node(d.images[len(d.images)-1], record.TypeFile), ld)
	}
	return d
}

// queryPool returns n distinct query texts over d, drawn with the seed
// from four shapes at random: name-rooted input* projections of an image,
// counts of an object's ancestors, descendant ~input* queries of a source
// or a header, and name projections of an image's ancestors. A shape
// whose roots are used up is skipped, so n must not exceed the number of
// distinct texts.
func (d *dag) queryPool(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		var q string
		switch rng.Intn(4) {
		case 0:
			q = fmt.Sprintf(`select A from Provenance.file as F F.input* as A where F.name = %q`, pick(d.images))
		case 1:
			q = fmt.Sprintf(`select count(A) from Provenance.file as F F.input* as A where F.name = %q`, pick(d.objects))
		case 2:
			roots := d.sources
			if rng.Intn(4) == 0 {
				roots = d.headers
			}
			q = fmt.Sprintf(`select D from Provenance.file as F F.input~* as D where F.name = %q`, pick(roots))
		default:
			q = fmt.Sprintf(`select A.name from Provenance.file as F F.input* as A where F.name = %q`, pick(d.images))
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// session generates one client's disclosures: a provenance DAG over a
// fixed set of the client's phantom objects, in epochs. In every epoch
// each object gets INPUT edges to the previous version of other objects
// (version 1 objects depend on DAG sources), and in the first epoch of a
// version also NAME and TYPE; after the last epoch of a version every
// object is frozen. Edges only point at older, frozen versions, so the
// graph stays acyclic and the analyzer never has to break a cycle.
type session struct {
	id      int
	objects int // phantom objects, created with PassMkobj
	perOp   int // objects disclosed per batch
	roots   []pnode.Ref
}

// epochsPerVersion is how many epochs of edges each version collects
// before the periodic freeze.
const epochsPerVersion = 4

// edgesPerEpoch is how many INPUT edges each object gets per epoch.
const edgesPerEpoch = 2

// disclosure is the records one batch discloses against one object.
type disclosure struct {
	obj  int
	recs []record.Record
}

func (s *session) batchesPerEpoch() int { return (s.objects + s.perOp - 1) / s.perOp }

// batch returns batch k's disclosures and whether the batch freezes the
// objects it touches afterwards. refs[i] is object i's current reference.
func (s *session) batch(k int, refs []pnode.Ref) ([]disclosure, bool) {
	epoch := k / s.batchesPerEpoch()
	phase := epoch % epochsPerVersion
	lo := (k % s.batchesPerEpoch()) * s.perOp
	hi := min(lo+s.perOp, s.objects)
	out := make([]disclosure, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ref := refs[i]
		var recs []record.Record
		if phase == 0 {
			recs = append(recs,
				record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/s%d/o%d", s.id, i))),
				record.New(ref, record.AttrType, record.StringVal(record.TypeFile)))
		}
		for e := 0; e < edgesPerEpoch; e++ {
			j := 1 + phase*edgesPerEpoch + e // distinct per version, never 0
			var src pnode.Ref
			if ref.Version == 1 {
				src = s.roots[(i*7+j*13+s.id)%len(s.roots)]
			} else {
				other := refs[(i+j)%s.objects]
				src = pnode.Ref{PNode: other.PNode, Version: ref.Version - 1}
			}
			recs = append(recs, record.Input(ref, src))
		}
		out = append(out, disclosure{obj: i, recs: recs})
	}
	return out, phase == epochsPerVersion-1
}
