package isa

import (
	"testing"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

func hashProg(rel semnet.RelType, spec rules.Spec, v float32) *Program {
	p := NewProgram()
	p.SearchNode(3, 1, v)
	p.Propagate(1, 2, spec, semnet.FuncAdd)
	p.CollectNode(2)
	_ = rel
	return p
}

func TestProgramHashStable(t *testing.T) {
	a := hashProg(5, rules.Path(5), 0)
	b := hashProg(5, rules.Path(5), 0)
	if a.Hash() != b.Hash() {
		t.Error("identical programs hash differently")
	}
	if a.Hash() != a.Hash() {
		t.Error("hash not deterministic across calls")
	}
	// A single-relation rule's unused R2 is no part of the rule.
	if c, d := hashProg(5, rules.Step(5), 0), hashProg(5, rules.Spec{Kind: rules.KindStep, R1: 5, R2: 9}, 0); c.Hash() != d.Hash() {
		t.Error("step(5) with a stray R2 hashes apart from step(5)")
	}
}

func TestProgramHashDiscriminates(t *testing.T) {
	base := hashProg(5, rules.Path(5), 0)
	cases := map[string]*Program{
		"different operand value": hashProg(5, rules.Path(5), 1),
		"different rule kind":     hashProg(5, rules.Step(5), 0),
		"different rule relation": hashProg(5, rules.Path(6), 0),
	}
	for name, p := range cases {
		if p.Hash() == base.Hash() {
			t.Errorf("%s: hash collides with base", name)
		}
	}
	longer := hashProg(5, rules.Path(5), 0)
	longer.CollectNode(2)
	if longer.Hash() == base.Hash() {
		t.Error("longer program hashes like its prefix")
	}
}

func TestProgramHashSeesRuleBody(t *testing.T) {
	// Same token number, different compiled FSM: hashes must differ.
	a := NewProgram()
	a.Propagate(1, 2, rules.Path(7), semnet.FuncAdd)
	b := NewProgram()
	b.Propagate(1, 2, rules.Spread(7, 8), semnet.FuncAdd)
	if a.Instrs[0].Rule != b.Instrs[0].Rule {
		t.Fatal("test premise broken: tokens differ")
	}
	if a.Hash() == b.Hash() {
		t.Error("programs with equal tokens but different rule FSMs collide")
	}
}
