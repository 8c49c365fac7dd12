package kbgen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"snap1/internal/semnet"
)

// Generate builds through a semnet.Builder; the locked per-element calls
// of semnet.KB must build the same network from the same parameters:
// node for node, link for link, the name tables and the generation. The
// handles Generate returns must not depend on the path either.
func TestBuiltKBMatchesPerElementKB(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, domain := range []bool{false, true} {
			p := Params{Nodes: 12000, Seed: seed, WithDomain: domain}
			built, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			kb := semnet.NewKB()
			ref, err := generate(p, kb)
			if err != nil {
				t.Fatal(err)
			}
			if err := semnet.Diff(built.KB, kb); err != nil {
				t.Errorf("seed %d, domain %v: %v", seed, domain, err)
			}
			ref.KB = built.KB
			if !reflect.DeepEqual(built, ref) {
				t.Errorf("seed %d, domain %v: the handles differ", seed, domain)
			}
			if n := built.KB.NumNodes(); n > nodeCount(p) || n < nodeCount(p)-1 {
				t.Errorf("seed %d, domain %v: %d nodes, sized for %d", seed, domain, n, nodeCount(p))
			}
		}
	}
	// The network snapd serves by default: its generation (one more after
	// Preprocess) is what /v1/stats reports at start-up.
	g := MustGenerate(Params{Nodes: 12000, Seed: 42, WithDomain: true})
	if got := g.KB.Generation(); got != 57951 {
		t.Errorf("seed 42 with the domain: generation %d, want 57951", got)
	}
}

// Building the 12 000-node network costs one allocation per node name
// and a handful for the columns, the name index, the builder's link list
// and the arena it is laid into: 12 129 in all. A heap slice of links per
// node made it about 46 500, and the per-element path about 56 600 (its
// node table and name index regrew, and fmt built every name). The
// builder's link list is allocated once, at linkBound's size, so the
// build allocates 2.57 MB; grown by doubling, the list made it 5.12 MB.
// The bounds are the count plus ≈ 3 % and the bytes plus ≈ 10 %.
func TestGenerateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := Params{Nodes: 12000, Seed: 42, WithDomain: true}
	allocs := testing.AllocsPerRun(3, func() { MustGenerate(p) })
	if allocs > 12500 {
		t.Errorf("Generate made %.0f allocations, want at most 12 500", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MustGenerate(p)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 2_820_000 {
		t.Errorf("Generate allocated %d B, want at most 2 820 000", bytes)
	}
}

// linkBound is a bound: no network Generate builds adds more links than
// it says, so the builder's link list never regrows.
func TestLinkBoundHolds(t *testing.T) {
	for _, p := range []Params{
		{Nodes: 64, Seed: 1},
		{Nodes: 3000, Seed: 11, WithDomain: true},
		{Nodes: 12000, Seed: 42, WithDomain: true},
		{Nodes: 20000, Seed: 7, Branching: 2},
	} {
		if links, bound := MustGenerate(p).KB.NumLinks(), linkBound(p); links > bound {
			t.Errorf("%+v: %d links, more than the bound of %d", p, links, bound)
		}
	}
}

// The network snapd serves by default, after Preprocess, pinned as one
// FNV-1a-64 digest over the node count and, node by node, the name bytes,
// color, function, subnode parent and links in order (relation, target,
// weight bits). A change to the generator, to the preprocessor or to how
// the KB stores either shows as a different digest.
func TestGeneratedKBDigest(t *testing.T) {
	const want = 0x5639fef33ef22c34
	kb := MustGenerate(Params{Nodes: 12000, Seed: 42, WithDomain: true}).KB
	kb.Preprocess()
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	put(uint32(kb.NumNodes()))
	for id := semnet.NodeID(0); int(id) < kb.NumNodes(); id++ {
		n, err := kb.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		put(uint32(len(n.Name)))
		h.Write([]byte(n.Name))
		h.Write([]byte{byte(n.Color), byte(n.Fn)})
		put(uint32(n.Parent))
		links := kb.Links(id)
		put(uint32(len(links)))
		for _, l := range links {
			put(uint32(l.Rel))
			put(uint32(l.To))
			put(math.Float32bits(l.Weight))
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest %#016x, want %#016x", got, uint64(want))
	}
}
