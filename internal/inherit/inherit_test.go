package inherit

import (
	"testing"

	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

func loaded(t *testing.T, nodes int) (*machine.Machine, *kbgen.Generated) {
	t.Helper()
	g := kbgen.MustGenerate(kbgen.Params{Nodes: nodes, Seed: 2})
	g.KB.Preprocess()
	cfg := machine.PaperConfig()
	if need := (g.KB.NumNodes() + cfg.Clusters - 1) / cfg.Clusters; need > cfg.NodesPerCluster {
		cfg.NodesPerCluster = need
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(g.KB); err != nil {
		t.Fatal(err)
	}
	return m, g
}

func TestInheritanceReachesAllLeaves(t *testing.T) {
	m, g := loaded(t, 800)
	res, err := Inheritance(m, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Error("no simulated time")
	}
	// Every hierarchy node below the root inherits the property.
	wantReached := len(g.Classes) + len(g.Leaves) - 1 // Classes includes leaves and root
	_ = wantReached
	if res.Leaves != len(g.Leaves) {
		t.Fatalf("leaves reached = %d, want %d", res.Leaves, len(g.Leaves))
	}
	if res.MaxDepth < 2 {
		t.Errorf("depth = %d, expected a multi-level hierarchy", res.MaxDepth)
	}
	// Inherited values are the accumulated is-a distance: positive at
	// every collected leaf.
	for _, it := range res.Collected {
		if it.Value <= 0 {
			t.Fatalf("leaf %d inherited nonpositive distance %v", it.Node, it.Value)
		}
	}
}

func TestClassificationIntersection(t *testing.T) {
	// Hand-built lattice: two properties with one common descendant.
	kb := semnet.NewKB()
	col := kb.ColorFor("class")
	down := kb.Relation("subsumes")
	a := kb.MustAddNode("a", col)
	b := kb.MustAddNode("b", col)
	both := kb.MustAddNode("both", col)
	onlyA := kb.MustAddNode("onlyA", col)
	kb.MustAddLink(a, down, 1, both)
	kb.MustAddLink(b, down, 1, both)
	kb.MustAddLink(a, down, 1, onlyA)

	cfg := machine.PaperConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	gen := &kbgen.Generated{KB: kb}
	gen.Rel.Subsumes = down
	res, err := Classification(m, gen, []semnet.NodeID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 1 {
		t.Fatalf("classification found %d concepts, want 1", res.Reached)
	}
	if res.Collected[0].Node != both {
		t.Fatalf("classified %d, want %d", res.Collected[0].Node, both)
	}
}

func TestClassificationErrors(t *testing.T) {
	m, g := loaded(t, 200)
	if _, err := Classification(m, g, nil); err == nil {
		t.Error("empty property set must fail")
	}
	props := make([]semnet.NodeID, 17)
	if _, err := Classification(m, g, props); err == nil {
		t.Error("too many properties must fail")
	}
}

func TestInheritanceScalesWithKB(t *testing.T) {
	m1, g1 := loaded(t, 400)
	m2, g2 := loaded(t, 3200)
	r1, err := Inheritance(m1, g1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Inheritance(m2, g2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Reached <= r1.Reached {
		t.Fatal("larger hierarchy must reach more concepts")
	}
	if r2.Time <= r1.Time {
		t.Fatalf("inheritance over 3200 nodes (%v) should cost more than over 400 (%v)", r2.Time, r1.Time)
	}
}
