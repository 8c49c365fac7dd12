package semnet

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unsafe"
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
	if err != nil || n.Name != "a" || n.IsSubnode() || len(kb.Links(a)) != 1 {
		t.Fatalf("Node(a) = %+v with links %v, %v", n, kb.Links(a), err)
	}
	if l := kb.Links(a)[0]; l != (Link{Rel: isa, Weight: 1.5, To: b}) {
		t.Fatalf("link = %+v", l)
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
			if _, err := kb.Node(id); err != nil {
				t.Fatal(err)
			}
			for _, l := range kb.Links(id) {
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

// Preprocess adds nodes, and only the ones it adds are subnodes.
func TestNumConcepts(t *testing.T) {
	kb, _ := buildFan(t, 40)
	before := kb.NumNodes()
	kb.Preprocess()
	concepts := 0
	for id := 0; id < kb.NumNodes(); id++ {
		if n, _ := kb.Node(NodeID(id)); !n.IsSubnode() {
			concepts++
		} else if id < before {
			t.Errorf("node %d, there before Preprocess, reads as a subnode", id)
		}
	}
	if concepts != before {
		t.Errorf("%d concepts, want %d (subnodes excluded)", concepts, before)
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
			for _, l := range kb.Links(NodeID(id)) {
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

// A KB a Builder made has every column sized once, at KB, for the
// subnodes Preprocess will add, however deep the continuation trees
// (4 097 links split three levels): each node column holds exactly the
// final node count, the base slab the links the Builder collected, the
// private slab the continuation links and a write's headroom, and
// Preprocess grows none of them.
func TestPreprocessGrowsTheTableOnce(t *testing.T) {
	fanouts := []int{0, 16, 17, 255, 256, 257, 4097}
	b := NewBuilder(len(fanouts), 0)
	rel := b.Relation("r")
	for i := range fanouts {
		b.MustAddNode("n"+strconv.Itoa(i), 0)
	}
	links := 0
	for i, f := range fanouts {
		for j := 0; j < f; j++ {
			b.MustAddLink(NodeID(i), rel, 1, NodeID(j%len(fanouts)))
		}
		links += f
	}
	kb := b.KB()
	want := len(fanouts)
	for _, f := range fanouts {
		want += subnodesFor(f)
	}
	conts := want - len(fanouts) // one continuation link per subnode
	columns := func() map[string]column {
		return map[string]column{
			"names": shape(kb.names), "colors": shape(kb.color), "fns": shape(kb.fn),
			"parent": shape(kb.parent), "off": shape(kb.links.off), "cnt": shape(kb.links.cnt),
			"spare": shape(kb.links.spare), "base": shape(kb.links.base), "slab": shape(kb.links.slab),
			"index": shape(kb.index.slots),
		}
	}
	built := columns()
	kb.Preprocess()
	if err := kb.Validate(); err != nil {
		t.Fatal(err)
	}
	after := columns()
	for name, c := range after {
		if c.at != built[name].at || c.cap != built[name].cap {
			t.Errorf("%s: Preprocess grew the column from %d to %d", name, built[name].cap, c.cap)
		}
	}
	for _, name := range []string{"names", "colors", "fns", "parent", "off", "cnt", "spare"} {
		if c := after[name]; c.len != want || c.cap != want {
			t.Errorf("%s: %d in a column of %d, want %d in %d", name, c.len, c.cap, want, want)
		}
	}
	if c := after["base"]; c.len != links || c.cap != links {
		t.Errorf("base: %d links in %d, want %d in %d", c.len, c.cap, links, links)
	}
	if c, room := after["slab"], conts+headroom(links+conts); c.len != conts || c.cap != room {
		t.Errorf("private slab: %d links in %d, want %d in %d", c.len, c.cap, conts, room)
	}
	if kb.links.holes != 0 || kb.links.live() != links+conts {
		t.Errorf("%d links and %d holes after Preprocess, want %d and none", kb.links.live(), kb.links.holes, links+conts)
	}
	if slots := len(kb.index.slots); slots < 2*want || slots >= 4*want {
		t.Errorf("name index of %d slots for %d names, want the least power of two of at least %d", slots, want, 2*want)
	}
}

// column is a slice's length, capacity and array.
type column struct {
	len, cap int
	at       unsafe.Pointer
}

func shape[E any](s []E) column { return column{len(s), cap(s), unsafe.Pointer(unsafe.SliceData(s))} }

// A subnode is never named after a node that exists: node a's 17 links
// split into subnodes 19 and 20, and node 18 is already called a~19.
func TestPreprocessNeverShadowsAName(t *testing.T) {
	kb := NewKB()
	a := kb.MustAddNode("a", 0)
	for i := 1; i < 18; i++ {
		kb.MustAddNode("n"+strconv.Itoa(i), 0)
	}
	user := kb.MustAddNode("a~19", 0)
	for j := 0; j < 17; j++ {
		kb.MustAddLink(a, 0, 1, NodeID(1+j))
	}
	kb.Preprocess()
	if kb.NumNodes() != 21 {
		t.Fatalf("%d nodes after Preprocess, want 21", kb.NumNodes())
	}
	if id, ok := kb.Lookup("a~19"); !ok || id != user {
		t.Fatalf("Lookup(a~19) = %d %v, want the user's node %d", id, ok, user)
	}
	for id := NodeID(0); int(id) < kb.NumNodes(); id++ {
		if got, ok := kb.Lookup(kb.Name(id)); !ok || got != id {
			t.Errorf("node %d's name %q resolves to %d %v", id, kb.Name(id), got, ok)
		}
	}
	if err := kb.Validate(); err != nil {
		t.Fatal(err)
	}
	// Validate reports a name that resolves to another node.
	kb.names[user] = kb.names[a]
	if err := kb.Validate(); err == nil || !strings.Contains(err.Error(), "resolves") {
		t.Fatalf("Validate of a shadowed name: %v", err)
	}
}
