package snap1_test

import (
	"testing"

	snap1 "snap1"
)

// TestQuickstart exercises the documented public-API session end to end.
func TestQuickstart(t *testing.T) {
	kb := snap1.NewKB()
	class := kb.ColorFor("class")
	isa := kb.Relation("is-a")
	animal := kb.MustAddNode("animal", class)
	mammal := kb.MustAddNode("mammal", class)
	dog := kb.MustAddNode("dog", class)
	kb.MustAddLink(dog, isa, 1, mammal)
	kb.MustAddLink(mammal, isa, 1, animal)

	cfg := snap1.PaperConfig()
	m, err := snap1.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}

	p := snap1.NewProgram()
	p.SearchNode(dog, 1, 0)
	p.Propagate(1, 2, snap1.PathRule(isa), snap1.FuncAdd)
	p.CollectNode(2)
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Names(0)
	if len(names) != 2 || names[0] != "animal" || names[1] != "mammal" {
		t.Fatalf("collected %v, want [animal mammal]", names)
	}
	if res.Time <= 0 {
		t.Error("no simulated time")
	}
	if m.MarkerValue(animal, 2) != 2 {
		t.Errorf("animal inherited distance %v, want 2", m.MarkerValue(animal, 2))
	}
}

// TestConfigsExposed verifies the facade's configuration surface.
func TestConfigsExposed(t *testing.T) {
	full := snap1.DefaultConfig()
	if full.Clusters != 32 || full.PEs() != 144 || full.MarkerUnits() != 80 {
		t.Fatalf("prototype configuration drifted: %d clusters, %d PEs, %d MUs",
			full.Clusters, full.PEs(), full.MarkerUnits())
	}
	eval := snap1.PaperConfig()
	if eval.Clusters != 16 || eval.PEs() != 72 {
		t.Fatalf("evaluation configuration drifted: %d clusters, %d PEs",
			eval.Clusters, eval.PEs())
	}
}

// TestRuleConstructors touches every predefined rule shape through the
// facade.
func TestRuleConstructors(t *testing.T) {
	kb := snap1.NewKB()
	r1, r2 := kb.Relation("a"), kb.Relation("b")
	p := snap1.NewProgram()
	p.Propagate(0, 1, snap1.StepRule(r1), snap1.FuncNop)
	p.Propagate(2, 3, snap1.PathRule(r1), snap1.FuncNop)
	p.Propagate(4, 5, snap1.SpreadRule(r1, r2), snap1.FuncNop)
	p.Propagate(6, 7, snap1.SeqRule(r1, r2), snap1.FuncNop)
	p.Propagate(8, 9, snap1.CombRule(r1, r2), snap1.FuncNop)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Rules.Len() != 5 {
		t.Fatalf("rule table has %d entries", p.Rules.Len())
	}
	if snap1.Binary(0) != 64 {
		t.Error("Binary(0) must be the first binary marker")
	}
}
