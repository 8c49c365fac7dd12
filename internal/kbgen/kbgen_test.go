package kbgen

import (
	"fmt"
	"testing"

	"snap1/internal/semnet"
)

func TestGenerateLayerMix(t *testing.T) {
	g, err := Generate(Params{Nodes: 6000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.KB.Validate(); err == nil {
		// Validate may fail before Preprocess on over-fanout hubs; both
		// outcomes are fine here, we check post-Preprocess below.
		_ = err
	}
	st := g.Summarize()
	total := float64(st.Nodes)
	// The lexicon is about a third of the network.
	lexFrac := float64(st.Words) / total
	if lexFrac < 0.25 || lexFrac > 0.42 {
		t.Errorf("lexicon fraction = %.2f, want ≈1/3", lexFrac)
	}
	// Concept sequences dominate the non-lexical nodes (paper: 75%).
	seqNodes := st.Nodes - st.Words - st.Classes - st.Syn - 8
	nonLex := st.Nodes - st.Words
	if frac := float64(seqNodes) / float64(nonLex); frac < 0.6 || frac > 0.9 {
		t.Errorf("concept-sequence fraction of non-lexical = %.2f, want ≈0.75", frac)
	}
	if st.Links == 0 || st.Roots == 0 || st.Leaves == 0 {
		t.Fatalf("degenerate network: %+v", st)
	}
	g.KB.Preprocess()
	if err := g.KB.Validate(); err != nil {
		t.Fatalf("post-preprocess validate: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Params{Nodes: 1000, Seed: 7})
	b := MustGenerate(Params{Nodes: 1000, Seed: 7})
	if a.KB.NumNodes() != b.KB.NumNodes() || a.KB.NumLinks() != b.KB.NumLinks() {
		t.Fatal("same seed must generate identical networks")
	}
	for i := 0; i < a.KB.NumNodes(); i++ {
		na, _ := a.KB.Node(semnet.NodeID(i))
		nb, _ := b.KB.Node(semnet.NodeID(i))
		if na.Name != nb.Name || na.Color != nb.Color || len(a.KB.Links(semnet.NodeID(i))) != len(b.KB.Links(semnet.NodeID(i))) {
			t.Fatalf("node %d differs between runs", i)
		}
	}
	c := MustGenerate(Params{Nodes: 1000, Seed: 8})
	if c.KB.NumLinks() == a.KB.NumLinks() {
		t.Log("different seeds produced equal link counts (possible but unlikely)")
	}
}

func TestGenerateTooSmall(t *testing.T) {
	if _, err := Generate(Params{Nodes: 10}); err == nil {
		t.Fatal("tiny budget must fail")
	}
}

func TestHierarchyBidirectional(t *testing.T) {
	g := MustGenerate(Params{Nodes: 2000, Seed: 3})
	// Every class (except the root) must have an upward is-a link whose
	// parent has the matching downward subsumes link.
	checked := 0
	for _, id := range g.Classes {
		if id == g.HierRoot {
			continue
		}
		node, _ := g.KB.Node(id)
		var parent semnet.NodeID = semnet.InvalidNode
		for _, l := range g.KB.Links(id) {
			if l.Rel == g.Rel.IsA {
				parent = l.To
			}
		}
		if parent == semnet.InvalidNode {
			t.Fatalf("class %s has no is-a parent", node.Name)
		}
		pn, _ := g.KB.Node(parent)
		found := false
		for _, l := range g.KB.Links(parent) {
			if l.Rel == g.Rel.Subsumes && l.To == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("parent %s lacks subsumes link to %s", pn.Name, node.Name)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no classes checked")
	}
}

func TestSequenceStructure(t *testing.T) {
	g := MustGenerate(Params{Nodes: 2000, Seed: 3})
	for _, root := range g.Roots[:10] {
		elems := 0
		for _, l := range g.KB.Links(root) {
			if l.Rel != g.Rel.Elem {
				continue
			}
			elems++
			var hasElemOf, hasSem, hasSyn bool
			for _, ll := range g.KB.Links(l.To) {
				switch ll.Rel {
				case g.Rel.ElemOf:
					hasElemOf = ll.To == root
				case g.Rel.Sem:
					hasSem = true
				case g.Rel.Syn:
					hasSyn = true
				}
			}
			if !hasElemOf || !hasSem || !hasSyn {
				t.Fatalf("element %s incomplete: elemOf=%v sem=%v syn=%v",
					g.KB.Name(l.To), hasElemOf, hasSem, hasSyn)
			}
		}
		if elems < 1 || elems > MaxSeqElements {
			t.Fatalf("root %s has %d elements", g.KB.Name(root), elems)
		}
	}
}

func TestDomainEmbedding(t *testing.T) {
	g := MustGenerate(Params{Nodes: 1000, Seed: 5, WithDomain: true})
	d := g.Domain
	if d == nil {
		t.Fatal("domain missing")
	}
	if len(d.Sentences) != 4 {
		t.Fatalf("%d evaluation sentences", len(d.Sentences))
	}
	for _, s := range d.Sentences {
		for _, w := range s.Words {
			if _, ok := g.KB.Lookup(w); !ok {
				t.Errorf("%s: word %q missing from lexicon", s.ID, w)
			}
		}
		if _, ok := g.KB.Lookup(s.Expect); !ok {
			t.Errorf("%s: expected sequence %q missing", s.ID, s.Expect)
		}
	}
	// Named roots must carry the right colors: basic = Root, aux = Aux.
	for _, id := range []semnet.NodeID{d.AttackEvent, d.BombingEvent, d.MurderEvent, d.KidnapEvent} {
		n, _ := g.KB.Node(id)
		if n.Color != g.Col.Root {
			t.Errorf("basic sequence %s has color %d", n.Name, n.Color)
		}
	}
	for _, id := range []semnet.NodeID{d.LocationCase, d.TimeCase} {
		n, _ := g.KB.Node(id)
		if n.Color != g.Col.Aux {
			t.Errorf("aux sequence %s has color %d", n.Name, n.Color)
		}
	}
	if len(EvaluationSentences()) != 4 {
		t.Error("EvaluationSentences")
	}
}

func TestChainsWorkload(t *testing.T) {
	w := Chains(3, 5, 7, 1)
	if w.Nodes() != 3*5*(7+1) {
		t.Fatalf("nodes = %d", w.Nodes())
	}
	if len(w.Seeds) != 3 {
		t.Fatal("seed colors")
	}
	// Each chain must be a simple path of the given depth.
	for g := 0; g < 3; g++ {
		for a := 0; a < 5; a++ {
			for d := 0; d < 7; d++ {
				id, ok := w.KB.Lookup(fmt.Sprintf("c%d.%d.%d", g, a, d))
				if !ok {
					t.Fatalf("missing chain node %d.%d.%d", g, a, d)
				}
				name, out := w.KB.Name(id), w.KB.Links(id)
				if len(out) != 1 || out[0].Rel != w.Rel {
					t.Fatalf("chain node %s has %d links", name, len(out))
				}
				if next := fmt.Sprintf("c%d.%d.%d", g, a, d+1); w.KB.Name(out[0].To) != next {
					t.Fatalf("chain node %s links to %s, want %s", name, w.KB.Name(out[0].To), next)
				}
			}
		}
	}
}

func TestNestedChains(t *testing.T) {
	levels := []int{10, 100, 1000}
	w, err := NestedChains(levels, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Nodes() != 1000*7 {
		t.Fatalf("nodes = %d", w.Nodes())
	}
	// Counting seeds per color: activating colors 0..j must light
	// exactly levels[j] chains.
	counts := make([]int, 3)
	for a := 0; a < 1000; a++ {
		id, _ := w.KB.Lookup(fmt.Sprintf("n%d.0", a))
		n, _ := w.KB.Node(id)
		for j, c := range w.Seeds {
			if n.Color == c {
				counts[j]++
			}
		}
	}
	if counts[0] != 10 || counts[0]+counts[1] != 100 || counts[0]+counts[1]+counts[2] != 1000 {
		t.Fatalf("nested seed counts = %v", counts)
	}
	// Each chain is a simple path from n<a>.0 to n<a>.6.
	for a := 0; a < 1000; a++ {
		for d := 0; d < 6; d++ {
			id, _ := w.KB.Lookup(fmt.Sprintf("n%d.%d", a, d))
			out := w.KB.Links(id)
			if next := fmt.Sprintf("n%d.%d", a, d+1); len(out) != 1 || w.KB.Name(out[0].To) != next {
				t.Fatalf("chain node %s links %+v, want one link to %s", w.KB.Name(id), out, next)
			}
		}
	}
}

func TestNestedChainsErrors(t *testing.T) {
	if _, err := NestedChains(nil, 5, 1); err == nil {
		t.Error("empty levels")
	}
	if _, err := NestedChains([]int{3, 1000}, 5, 1); err == nil {
		t.Error("non-divisible level")
	}
	if _, err := NestedChains([]int{100, 100}, 5, 1); err == nil {
		t.Error("non-ascending levels")
	}
}
