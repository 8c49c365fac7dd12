package semnet

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestKBBuild(t *testing.T) {
	kb := NewKB()
	col := kb.ColorFor("class")
	isa := kb.Relation("is-a")
	a := kb.MustAddNode("a", col)
	b := kb.MustAddNode("b", col)
	kb.MustAddLink(a, isa, 1.5, b)

	if kb.NumNodes() != 2 || kb.NumLinks() != 1 {
		t.Fatalf("counts: %d nodes, %d links", kb.NumNodes(), kb.NumLinks())
	}
	id, ok := kb.Lookup("a")
	if !ok || id != a {
		t.Fatal("Lookup(a) failed")
	}
	n, err := kb.Node(a)
	if err != nil || n.Name != "a" || len(n.Out) != 1 {
		t.Fatalf("Node(a) = %+v, %v", n, err)
	}
	if n.Out[0] != (Link{Rel: isa, Weight: 1.5, To: b}) {
		t.Fatalf("link = %+v", n.Out[0])
	}
	if err := kb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestKBErrors(t *testing.T) {
	kb := NewKB()
	col := kb.ColorFor("c")
	a := kb.MustAddNode("a", col)
	if _, err := kb.AddNode("a", col); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate node: %v", err)
	}
	if err := kb.AddLink(a, 0, 1, NodeID(99)); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("bad link target: %v", err)
	}
	if err := kb.SetFn(NodeID(99), FuncAdd); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("SetFn on missing node: %v", err)
	}
	if _, err := kb.Node(NodeID(99)); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Node on missing id: %v", err)
	}
	if got := kb.Name(NodeID(99)); got != "node#99" {
		t.Errorf("Name placeholder = %q", got)
	}
}

func TestInterning(t *testing.T) {
	kb := NewKB()
	r1 := kb.Relation("is-a")
	if kb.Relation("is-a") != r1 {
		t.Error("relation interning must be stable")
	}
	if kb.RelationName(r1) != "is-a" {
		t.Error("RelationName round trip failed")
	}
	if kb.RelationName(RelCont) != "<cont>" {
		t.Error("RelCont name")
	}
	c1 := kb.ColorFor("word")
	if kb.ColorFor("word") != c1 || kb.ColorName(c1) != "word" {
		t.Error("color interning round trip failed")
	}
	if kb.ColorName(ColorSubnode) != "<subnode>" {
		t.Error("subnode color name")
	}
	if kb.ColorName(Color(200)) != "color#200" {
		t.Error("unknown color placeholder")
	}
	if kb.RelationName(RelType(900)) != "rel#900" {
		t.Error("unknown relation placeholder")
	}
}

// buildFan returns a KB with one hub of the given fanout.
func buildFan(t *testing.T, fanout int) (*KB, NodeID) {
	t.Helper()
	kb := NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("r")
	hub := kb.MustAddNode("hub", col)
	for i := 0; i < fanout; i++ {
		id := kb.MustAddNode(fmt.Sprintf("leaf%d", i), col)
		kb.MustAddLink(hub, rel, float32(i), id)
	}
	return kb, hub
}

func TestPreprocessSplitsFanout(t *testing.T) {
	for _, fanout := range []int{1, 16, 17, 40, 256, 300, 1000} {
		kb, hub := buildFan(t, fanout)
		kb.Preprocess()
		if err := kb.Validate(); err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		// Every original destination must remain reachable through cont
		// links, and every subnode must canonicalize to the hub.
		reached := make(map[NodeID]bool)
		var walk func(id NodeID, depth int)
		var maxDepth int
		walk = func(id NodeID, depth int) {
			if depth > maxDepth {
				maxDepth = depth
			}
			n, err := kb.Node(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range n.Out {
				if l.Rel == RelCont {
					if kb.Canonical(l.To) != hub {
						t.Fatalf("fanout %d: subnode %d canonicalizes to %d", fanout, l.To, kb.Canonical(l.To))
					}
					walk(l.To, depth+1)
				} else {
					reached[l.To] = true
				}
			}
		}
		walk(hub, 0)
		if len(reached) != fanout {
			t.Fatalf("fanout %d: %d destinations reachable after split", fanout, len(reached))
		}
		// The subnode structure must be a shallow tree, not a chain:
		// depth grows with log16(fanout), and 1000 links fit in 3 levels.
		if fanout <= 16 && maxDepth != 0 {
			t.Errorf("fanout %d needlessly split", fanout)
		}
		if fanout == 1000 && maxDepth > 3 {
			t.Errorf("fanout 1000 split into depth %d, want a shallow tree", maxDepth)
		}
	}
}

func TestPreprocessIdempotent(t *testing.T) {
	kb, _ := buildFan(t, 100)
	kb.Preprocess()
	nodes, links := kb.NumNodes(), kb.NumLinks()
	kb.Preprocess()
	if kb.NumNodes() != nodes || kb.NumLinks() != links {
		t.Fatalf("second Preprocess changed the network: %d/%d -> %d/%d",
			nodes, links, kb.NumNodes(), kb.NumLinks())
	}
}

func TestNumConcepts(t *testing.T) {
	kb, _ := buildFan(t, 40)
	before := kb.NumNodes()
	kb.Preprocess()
	if kb.NumConcepts() != before {
		t.Errorf("NumConcepts = %d, want %d (subnodes excluded)", kb.NumConcepts(), before)
	}
	if kb.NumNodes() <= before {
		t.Error("Preprocess should have added subnodes")
	}
}

func TestNamesDedupSubnodes(t *testing.T) {
	kb, hub := buildFan(t, 40)
	kb.Preprocess()
	var ids []NodeID
	ids = append(ids, hub)
	// Find a subnode and include it: Names must canonicalize and dedup.
	for i := 0; i < kb.NumNodes(); i++ {
		if n, _ := kb.Node(NodeID(i)); n.IsSubnode() {
			ids = append(ids, NodeID(i))
			break
		}
	}
	names := kb.Names(ids)
	if len(names) != 1 || names[0] != "hub" {
		t.Fatalf("Names = %v, want [hub]", names)
	}
}

func TestValidateCatchesOverFanout(t *testing.T) {
	kb, _ := buildFan(t, 20)
	err := kb.Validate()
	if err == nil || !strings.Contains(err.Error(), "fanout") {
		t.Fatalf("Validate must reject un-preprocessed over-fanout, got %v", err)
	}
}

// Preprocess over random graphs: total non-cont out-degree is preserved
// and no node exceeds the slot budget.
func TestPreprocessRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		kb := NewKB()
		col := kb.ColorFor("c")
		rel := kb.Relation("r")
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			kb.MustAddNode(fmt.Sprintf("n%d", i), col)
		}
		links := rng.Intn(300)
		for i := 0; i < links; i++ {
			from := NodeID(rng.Intn(n))
			to := NodeID(rng.Intn(n))
			kb.MustAddLink(from, rel, 1, to)
		}
		kb.Preprocess()
		if err := kb.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Count non-cont links; must equal the original count.
		real := 0
		for id := 0; id < kb.NumNodes(); id++ {
			node, _ := kb.Node(NodeID(id))
			for _, l := range node.Out {
				if l.Rel != RelCont {
					real++
				}
			}
		}
		if real != links {
			t.Fatalf("trial %d: %d real links after preprocess, want %d", trial, real, links)
		}
	}
}

// Preprocess makes room for all its subnodes at once: a table built to
// the exact node count grows once, to exactly the count it ends with,
// however deep the continuation trees (4 097 links split three levels).
func TestPreprocessGrowsTheTableOnce(t *testing.T) {
	fanouts := []int{0, 16, 17, 255, 256, 257, 4097}
	b := NewBuilder(len(fanouts))
	rel := b.Relation("r")
	for i := range fanouts {
		b.MustAddNode("n"+strconv.Itoa(i), 0)
	}
	for i, f := range fanouts {
		for j := 0; j < f; j++ {
			b.MustAddLink(NodeID(i), rel, 1, NodeID(j%len(fanouts)))
		}
	}
	kb := b.KB()
	want := len(fanouts)
	for _, f := range fanouts {
		want += subnodesFor(f)
	}
	kb.Preprocess()
	if err := kb.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(kb.nodes) != want || cap(kb.nodes) != want {
		t.Fatalf("%d nodes in a table of %d after Preprocess, want %d in %d", len(kb.nodes), cap(kb.nodes), want, want)
	}
}
