package inherit

import (
	"testing"

	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

// birdKB builds the canonical exception lattice:
//
//	animal ⊐ bird ⊐ {sparrow, penguin ⊐ {rockhopper, magic-penguin}}
//
// "flies" is asserted at bird, cancelled at penguin, restored at
// magic-penguin.
func birdKB(t *testing.T) (*machine.Machine, *kbgen.Generated, map[string]semnet.NodeID) {
	t.Helper()
	kb := semnet.NewKB()
	col := kb.ColorFor("class")
	down := kb.Relation("subsumes")
	up := kb.Relation("is-a")
	ids := make(map[string]semnet.NodeID)
	add := func(name, parent string) {
		id := kb.MustAddNode(name, col)
		ids[name] = id
		if parent != "" {
			kb.MustAddLink(ids[parent], down, 1, id)
			kb.MustAddLink(id, up, 1, ids[parent])
		}
	}
	add("animal", "")
	add("bird", "animal")
	add("sparrow", "bird")
	add("penguin", "bird")
	add("rockhopper", "penguin")
	add("magic-penguin", "penguin")

	cfg := machine.PaperConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	g := &kbgen.Generated{KB: kb}
	g.Rel.Subsumes = down
	g.Rel.IsA = up
	return m, g, ids
}

func names(g *kbgen.Generated, res *Result) map[string]bool {
	out := make(map[string]bool)
	for _, it := range res.Collected {
		out[g.KB.Name(g.KB.Canonical(it.Node))] = true
	}
	return out
}

func TestInheritNoExceptions(t *testing.T) {
	m, g, ids := birdKB(t)
	res, err := InheritWithExceptions(m, g, PropertyQuery{Source: ids["bird"]})
	if err != nil {
		t.Fatal(err)
	}
	got := names(g, res)
	for _, want := range []string{"bird", "sparrow", "penguin", "rockhopper", "magic-penguin"} {
		if !got[want] {
			t.Errorf("%s should fly", want)
		}
	}
	if got["animal"] {
		t.Error("the property must not spread upward")
	}
}

func TestExceptionBlocksSubtree(t *testing.T) {
	m, g, ids := birdKB(t)
	res, err := InheritWithExceptions(m, g, PropertyQuery{
		Source:     ids["bird"],
		Exceptions: []Exception{{At: ids["penguin"]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := names(g, res)
	for _, want := range []string{"bird", "sparrow"} {
		if !got[want] {
			t.Errorf("%s should still fly", want)
		}
	}
	for _, blocked := range []string{"penguin", "rockhopper", "magic-penguin"} {
		if got[blocked] {
			t.Errorf("%s must not fly (cancelled)", blocked)
		}
	}
}

func TestRestoreReenablesBelowBlock(t *testing.T) {
	m, g, ids := birdKB(t)
	res, err := InheritWithExceptions(m, g, PropertyQuery{
		Source: ids["bird"],
		Exceptions: []Exception{
			{At: ids["penguin"]},
			{At: ids["magic-penguin"], Restore: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := names(g, res)
	if !got["magic-penguin"] {
		t.Error("magic-penguin flies again")
	}
	if got["penguin"] || got["rockhopper"] {
		t.Error("ordinary penguins stay grounded")
	}
	if !got["sparrow"] {
		t.Error("sparrow unaffected")
	}
}

func TestExceptionAtSourceBlocksEverything(t *testing.T) {
	m, g, ids := birdKB(t)
	res, err := InheritWithExceptions(m, g, PropertyQuery{
		Source:     ids["bird"],
		Exceptions: []Exception{{At: ids["bird"]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := names(g, res)
	// The assertion at the source survives by definition; every
	// descendant is shadowed.
	if !got["bird"] {
		t.Error("assertion at the source survives")
	}
	for _, blocked := range []string{"sparrow", "penguin", "rockhopper"} {
		if got[blocked] {
			t.Errorf("%s must be shadowed", blocked)
		}
	}
}

func TestExceptionErrors(t *testing.T) {
	m, g, _ := birdKB(t)
	if _, err := InheritWithExceptions(m, g, PropertyQuery{Source: semnet.NodeID(999)}); err == nil {
		t.Error("bad source")
	}
	if _, err := InheritWithExceptions(m, g, PropertyQuery{
		Source:     0,
		Exceptions: []Exception{{At: semnet.NodeID(999)}},
	}); err == nil {
		t.Error("bad exception")
	}
}

func TestExceptionsOnGeneratedHierarchy(t *testing.T) {
	// On a synthetic hierarchy: block one mid-level class and verify the
	// holds-set equals reference reachability minus the blocked subtree.
	mach, g := loaded(t, 800)
	mid := g.Classes[len(g.Classes)/4]
	full, err := InheritWithExceptions(mach, g, PropertyQuery{Source: g.HierRoot})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := InheritWithExceptions(mach, g, PropertyQuery{
		Source:     g.HierRoot,
		Exceptions: []Exception{{At: mid}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Reached >= full.Reached {
		t.Fatalf("blocking a subtree must shrink the holds set: %d vs %d",
			blocked.Reached, full.Reached)
	}
	got := names(g, blocked)
	if got[g.KB.Name(mid)] {
		t.Error("the blocked class itself must not hold the property")
	}
}
