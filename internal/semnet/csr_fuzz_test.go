package semnet

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// refTopo is a naive slice-of-slices relation table plus per-marker bit
// sets — the layout the store used before the CSR arena, kept here as the
// differential reference. The arena (with its in-place patches, tail
// relocations, hole compaction and COW slab sharing) must be observably
// identical to it under arbitrary mutation sequences.
type refTopo struct {
	rel    [][]Link
	colors []Color
	marks  map[[2]int]bool // (marker, local)
}

func newRefTopo() *refTopo { return &refTopo{marks: make(map[[2]int]bool)} }

func (r *refTopo) addNode(c Color) {
	r.rel = append(r.rel, nil)
	r.colors = append(r.colors, c)
}

func (r *refTopo) setLinks(local int, links []Link) {
	r.rel[local] = append([]Link(nil), links...)
}

func (r *refTopo) addLink(local int, l Link) bool {
	if len(r.rel[local]) >= RelationSlots {
		return false
	}
	r.rel[local] = append(r.rel[local], l)
	return true
}

func (r *refTopo) removeLink(local int, rel RelType, to NodeID) bool {
	links := r.rel[local]
	for i, l := range links {
		if l.Rel == rel && l.To == to {
			r.rel[local] = append(links[:i:i], links[i+1:]...)
			return true
		}
	}
	return false
}

// clone deep-copies the reference, mirroring either fork of the store
// (marker state always starts cleared).
func (r *refTopo) clone() *refTopo {
	c := newRefTopo()
	c.colors = append([]Color(nil), r.colors...)
	for _, links := range r.rel {
		c.rel = append(c.rel, append([]Link(nil), links...))
	}
	return c
}

// checkAgainst compares every observable of a table of one store with the
// reference: node count, colors, Links content, ForEachSet order and
// membership, CountSet, and the live-link census.
func (r *refTopo) checkAgainst(t *testing.T, tab *Table, tag string) {
	t.Helper()
	s := tab.Store(0)
	if s.NumNodes() != len(r.rel) {
		t.Fatalf("%s: NumNodes=%d want %d", tag, s.NumNodes(), len(r.rel))
	}
	total := 0
	for i := range r.rel {
		if s.Color(i) != r.colors[i] {
			t.Fatalf("%s: node %d color=%d want %d", tag, i, s.Color(i), r.colors[i])
		}
		got, want := s.Links(i), r.rel[i]
		if len(got) != len(want) {
			t.Fatalf("%s: node %d has %d links, want %d", tag, i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: node %d link %d = %+v, want %+v", tag, i, j, got[j], want[j])
			}
		}
		total += len(want)
	}
	if s.NumLinks() != total {
		t.Fatalf("%s: NumLinks=%d want %d", tag, s.NumLinks(), total)
	}
	for _, m := range []MarkerID{0, 3, Binary(0), Binary(5)} {
		count := 0
		prev := -1
		s.ForEachSet(m, func(local int) {
			if local <= prev {
				t.Fatalf("%s: ForEachSet(%d) out of order: %d after %d", tag, m, local, prev)
			}
			prev = local
			if !r.marks[[2]int{int(m), local}] {
				t.Fatalf("%s: ForEachSet(%d) visited unset node %d", tag, m, local)
			}
			count++
		})
		want := 0
		for k, set := range r.marks {
			if set && k[0] == int(m) {
				want++
			}
		}
		if count != want {
			t.Fatalf("%s: ForEachSet(%d) visited %d nodes, want %d", tag, m, count, want)
		}
		if got := tab.CountSet(m); got != want {
			t.Fatalf("%s: CountSet(%d)=%d want %d", tag, m, got, want)
		}
	}
}

// pair is one store under test, alone in its table, with its reference
// shadow.
type pair struct {
	tab *Table
	s   *Store
	ref *refTopo
}

func newPair(tab *Table, ref *refTopo) *pair { return &pair{tab: tab, s: tab.Store(0), ref: ref} }

// fork clones a pair mid-sequence: deep (a private copy of the topology,
// compacted) or shared (aliased slabs, copy-on-write).
func (p *pair) fork(t *testing.T, deep bool) *pair {
	if deep {
		return newPair(deepCopy(t, p.s), p.ref.clone())
	}
	return newPair(NewSharedTable(p.tab.Share()), p.ref.clone())
}

// mutateCSR applies one decoded operation to a pair. Every path of the
// arena is reachable: in-place shrink, tail extend, relocation (hole
// creation), compaction, and the COW materialization of shared slabs.
func mutateCSR(t *testing.T, rng *rand.Rand, p *pair, op int) {
	t.Helper()
	n := p.s.NumNodes()
	randLinks := func() []Link {
		links := make([]Link, rng.Intn(RelationSlots+1))
		for i := range links {
			links[i] = Link{Rel: RelType(rng.Intn(4)), Weight: float32(rng.Intn(8)), To: NodeID(rng.Intn(64))}
		}
		return links
	}
	switch op {
	case 0:
		c := Color(rng.Intn(4))
		if _, err := p.s.AddNode(NodeID(n), c, FuncNop); err == nil {
			p.ref.addNode(c)
		}
	case 1:
		if n == 0 {
			return
		}
		local, links := rng.Intn(n), randLinks()
		if err := p.s.setLinks(local, links); err != nil {
			t.Fatalf("setLinks: %v", err)
		}
		p.ref.setLinks(local, links)
	case 2:
		if n == 0 {
			return
		}
		local := rng.Intn(n)
		l := Link{Rel: RelType(rng.Intn(4)), Weight: 1, To: NodeID(rng.Intn(64))}
		err := p.s.AddLink(local, l)
		if ok := p.ref.addLink(local, l); ok != (err == nil) {
			t.Fatalf("AddLink: store err=%v, ref ok=%v", err, ok)
		}
	case 3:
		if n == 0 {
			return
		}
		local := rng.Intn(n)
		rel, to := RelType(rng.Intn(4)), NodeID(rng.Intn(64))
		if got, want := p.s.RemoveLink(local, rel, to), p.ref.removeLink(local, rel, to); got != want {
			t.Fatalf("RemoveLink: store=%v ref=%v", got, want)
		}
	case 4:
		if n == 0 {
			return
		}
		local := rng.Intn(n)
		m := []MarkerID{0, 3, Binary(0), Binary(5)}[rng.Intn(4)]
		if rng.Intn(3) == 0 {
			p.s.unset(local, m)
			delete(p.ref.marks, [2]int{int(m), local})
		} else {
			p.s.Set(local, m)
			p.ref.marks[[2]int{int(m), local}] = true
		}
	case 5:
		m := []MarkerID{0, 3, Binary(0), Binary(5)}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			p.tab.SetAll(m, 1)
			for i := 0; i < n; i++ {
				p.ref.marks[[2]int{int(m), i}] = true
			}
		} else {
			p.tab.ClearAll(m)
			for i := 0; i < n; i++ {
				delete(p.ref.marks, [2]int{int(m), i})
			}
		}
	case 6:
		if n == 0 {
			return
		}
		local, c := rng.Intn(n), Color(rng.Intn(4))
		if err := p.s.SetColor(local, c); err != nil {
			t.Fatalf("SetColor: %v", err)
		}
		p.ref.colors[local] = c
	}
}

// TestCSRStoreDifferential drives random topology mutations and marker
// operations through the CSR store and the slice-of-slices reference,
// forking clone pairs (both deep and shared/COW) mid-sequence, and
// compares every observable after each step. A mutation leaking through
// an aliased slab, a relocation corrupting a neighbor's block, or a
// compaction reordering links all surface as a divergence.
func TestCSRStoreDifferential(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		cap := 8 + rng.Intn(120)
		driveCSR(t, rng, trial, newPair(NewTable(1, cap), newRefTopo()))
	}
}

// driveCSR applies 400 random steps to pairs forked from p, at most four.
func driveCSR(t *testing.T, rng *rand.Rand, trial int, p *pair) {
	t.Helper()
	pairs := []*pair{p}
	for step := 0; step < 400; step++ {
		i := rng.Intn(len(pairs))
		p := pairs[i]
		op := rng.Intn(9)
		switch {
		case op < 7:
			mutateCSR(t, rng, p, op)
		case len(pairs) < 4:
			// Fork a clone and keep mutating both sides.
			pairs = append(pairs, p.fork(t, op == 7))
		}
		for j, q := range pairs {
			q.ref.checkAgainst(t, q.tab, trialTag(trial, step, j))
		}
	}
}

// TestDownloadedStoreDifferential is TestCSRStoreDifferential on a store
// downloaded from a knowledge base, whose arena indexes the KB's frozen
// base slab and holds copies only of the rows the KB keeps privately.
// The store's writes, its forks' and their compactions must read as the
// reference does, and must leave every row of the KB as it was: no
// store mutator writes the base it shares.
func TestDownloadedStoreDifferential(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		capacity := 8 + rng.Intn(120)
		b := NewBuilder(capacity, 0)
		for i := range capacity {
			b.MustAddNode(itoa(i), Color(rng.Intn(4)))
		}
		link := func(add func(NodeID, RelType, float32, NodeID), from NodeID) {
			add(from, RelType(rng.Intn(4)), float32(rng.Intn(8)), NodeID(rng.Intn(capacity)))
		}
		for i := range NodeID(capacity) {
			for range rng.Intn(RelationSlots + 1) {
				link(b.MustAddLink, i)
			}
		}
		kb := b.KB()
		// Rows the KB moves into its private slab, which a download copies.
		for range capacity / 8 {
			if from := NodeID(rng.Intn(capacity)); len(kb.Links(from)) < RelationSlots {
				link(kb.MustAddLink, from)
			}
		}
		ids := make([]NodeID, capacity)
		kbRows := make([][]Link, capacity)
		for i := range ids {
			ids[i] = NodeID(i)
			kbRows[i] = slices.Clone(kb.Links(NodeID(i)))
		}
		tab := NewTable(1, 2*capacity)
		var err error
		kb.View(func(v View) { err = tab.Store(0).Download(v, ids) })
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTopo()
		for i, id := range ids {
			n, _ := kb.Node(id)
			ref.addNode(n.Color)
			ref.setLinks(i, kbRows[i])
		}
		driveCSR(t, rng, trial, newPair(tab, ref))
		for i, want := range kbRows {
			if got := kb.Links(NodeID(i)); !slices.Equal(got, want) {
				t.Fatalf("trial %d: the KB's row %d became %v, was %v", trial, i, got, want)
			}
		}
	}
}

// Download fills only an empty store, and refuses a row wider than the
// relation slots, as setLinks does.
func TestDownloadRefusals(t *testing.T) {
	b := NewBuilder(2, 0)
	a, c := b.MustAddNode("a", 0), b.MustAddNode("c", 0)
	for range RelationSlots + 1 {
		b.MustAddLink(a, 0, 1, c)
	}
	kb := b.KB()
	kb.View(func(v View) {
		if err := NewTable(1, 4).Store(0).Download(v, []NodeID{a}); !errors.Is(err, ErrCapacity) {
			t.Errorf("a row of %d links: %v, want ErrCapacity", RelationSlots+1, err)
		}
		s := NewTable(1, 4).Store(0)
		if err := s.Download(v, []NodeID{c}); err != nil {
			t.Fatal(err)
		}
		if err := s.Download(v, []NodeID{c}); err == nil {
			t.Error("a second download into a filled store succeeded")
		}
		if err := NewTable(1, 4).Store(0).Download(v, []NodeID{7}); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("an unknown node: %v, want ErrUnknownNode", err)
		}
	})
}

func trialTag(trial, step, pair int) string {
	return "trial " + itoa(trial) + " step " + itoa(step) + " pair " + itoa(pair)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// FuzzCSRStore is the coverage-guided entry point over the same model:
// the fuzzer's byte string is the operation tape.
func FuzzCSRStore(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 7, 1, 8, 2, 4, 5, 3, 0, 1, 6})
	f.Add([]byte{0, 0, 0, 8, 1, 1, 7, 2, 2, 3, 3, 5, 4, 4})
	f.Fuzz(func(t *testing.T, tape []byte) {
		rng := rand.New(rand.NewSource(99))
		pairs := []*pair{newPair(NewTable(1, 64), newRefTopo())}
		for _, b := range tape {
			i := int(b>>4) % len(pairs)
			p := pairs[i]
			op := int(b & 0x0F)
			switch {
			case op < 7:
				mutateCSR(t, rng, p, op)
			case op < 9 && len(pairs) < 4:
				pairs = append(pairs, p.fork(t, op == 7))
			}
		}
		for j, q := range pairs {
			q.ref.checkAgainst(t, q.tab, "pair "+itoa(j))
		}
	})
}
