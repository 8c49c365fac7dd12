package isa

import (
	"strings"
	"testing"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

func TestTwentyOpcodes(t *testing.T) {
	// The paper formalizes 20 high-level instructions (Table II); the
	// twentieth slot here is the COMM-END barrier request.
	if NumOpcodes != 20 {
		t.Fatalf("NumOpcodes = %d, want 20", NumOpcodes)
	}
	seen := make(map[string]bool)
	for op := 0; op < NumOpcodes; op++ {
		name := Opcode(op).String()
		if name == "" || strings.HasPrefix(name, "OP(") {
			t.Errorf("opcode %d has no name", op)
		}
		if seen[name] {
			t.Errorf("duplicate opcode name %q", name)
		}
		seen[name] = true
	}
	// Table II names spot-check.
	for _, want := range []string{
		"CREATE", "DELETE", "SET-COLOR", "SEARCH-NODE", "SEARCH-RELATION",
		"SEARCH-COLOR", "PROPAGATE", "MARKER-CREATE", "MARKER-DELETE",
		"MARKER-SET-COLOR", "AND-MARKER", "OR-MARKER", "NOT-MARKER",
		"SET-MARKER", "CLEAR-MARKER", "FUNC-MARKER", "COLLECT-NODE",
		"COLLECT-RELATION", "COLLECT-COLOR", "COMM-END",
	} {
		if !seen[want] {
			t.Errorf("missing Table II instruction %q", want)
		}
	}
}

func TestGroupOfCoversAll(t *testing.T) {
	counts := make(map[Group]int)
	for op := 0; op < NumOpcodes; op++ {
		counts[GroupOf(Opcode(op))]++
	}
	want := map[Group]int{
		GroupNodeMaint:   3,
		GroupSearch:      3,
		GroupPropagate:   1,
		GroupMarkerMaint: 3,
		GroupBoolean:     3,
		GroupSetClear:    3,
		GroupCollect:     3,
		GroupSync:        1,
	}
	for g, n := range want {
		if counts[g] != n {
			t.Errorf("group %v has %d opcodes, want %d", g, counts[g], n)
		}
	}
}

func TestConditionEval(t *testing.T) {
	cases := []struct {
		c    Condition
		v, o float32
		want bool
	}{
		{CondNone, 1, 2, true},
		{CondLT, 1, 2, true},
		{CondLT, 2, 2, false},
		{CondLE, 2, 2, true},
		{CondGT, 3, 2, true},
		{CondGE, 2, 2, true},
		{CondEQ, 2, 2, true},
		{CondEQ, 1, 2, false},
		{CondNE, 1, 2, true},
	}
	for _, c := range cases {
		if got := c.c.Eval(c.v, c.o); got != c.want {
			t.Errorf("%v.Eval(%v,%v) = %v", c.c, c.v, c.o, got)
		}
	}
	if Condition(40).Valid() {
		t.Error("condition 40 must be invalid")
	}
}

func TestValidateRejectsBadOperands(t *testing.T) {
	bad := []Instruction{
		{Op: OpSearchNode, M1: 200},
		{Op: OpPropagate, M1: 1, M2: 2, Rule: 0}, // missing rule token
		{Op: OpPropagate, M1: 200, M2: 2, Rule: 1},
		{Op: OpPropagate, M1: 1, M2: 2, Rule: 1, Fn: semnet.FuncCode(99)},
		{Op: OpAndMarker, M1: 1, M2: 2, M3: 200},
		{Op: OpNotMarker, M1: 1, M2: 2, Cond: Condition(99)},
		{Op: OpFuncMarker, M1: 1, Fn: semnet.FuncCode(99)},
		{Op: Opcode(77)},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d (%v) should fail validation", i, in.Op)
		}
	}
	good := Instruction{Op: OpPropagate, M1: 1, M2: 2, Rule: 1, Fn: semnet.FuncAdd}
	if err := good.Validate(); err != nil {
		t.Errorf("valid propagate rejected: %v", err)
	}
}

func buildProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()
	p.SearchNode(1, 1, 0).
		Propagate(1, 2, rules.Path(5), semnet.FuncAdd).
		And(1, 2, 3, semnet.FuncNop).
		CollectNode(3).
		Barrier()
	return p
}

func TestProgramBuilderAndValidate(t *testing.T) {
	p := buildProgram(t)
	if p.Len() != 5 {
		t.Fatalf("Len = %d", p.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Rules.Len() != 1 {
		t.Fatalf("rule table has %d rules", p.Rules.Len())
	}
	// Corrupt a rule token and re-validate.
	p.Instrs[1].Rule = 99
	if err := p.Validate(); err == nil {
		t.Error("dangling rule token must fail validation")
	}
}

func TestProgramAddRejectsInvalid(t *testing.T) {
	p := NewProgram()
	if err := p.Add(Instruction{Op: OpSearchNode, M1: 250}); err == nil {
		t.Fatal("Add must validate")
	}
	if p.Len() != 0 {
		t.Fatal("failed Add must not append")
	}
}

func TestAllEmittersValidate(t *testing.T) {
	p := NewProgram()
	p.Create(0, 1, 0.5, 1)
	p.Delete(0, 1, 1)
	p.SetColor(0, 3)
	p.SearchNode(0, 1, 0)
	p.SearchRelation(1, 2, 0)
	p.SearchColor(3, 3, 0)
	p.Propagate(1, 2, rules.Spread(1, 2), semnet.FuncMin)
	p.MarkerCreate(2, 4, 1, 5, true)
	p.MarkerDelete(2, 4, 1, 5, true)
	p.MarkerSetColor(2, 7)
	p.And(1, 2, 3, semnet.FuncAdd)
	p.Or(1, 2, 3, semnet.FuncAdd)
	p.Not(1, 2, 0.5, CondLE)
	p.Set(4, 1)
	p.ClearM(4)
	p.Func(4, semnet.FuncMul, 2)
	p.CollectNode(4)
	p.CollectRelation(4, 1)
	p.CollectColor(4)
	p.Barrier()
	if p.Len() != NumOpcodes {
		t.Fatalf("emitted %d instructions, want one per opcode", p.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every opcode must appear exactly once.
	seen := make(map[Opcode]int)
	for _, in := range p.Instrs {
		seen[in.Op]++
	}
	for op := 0; op < NumOpcodes; op++ {
		if seen[Opcode(op)] != 1 {
			t.Errorf("opcode %v emitted %d times", Opcode(op), seen[Opcode(op)])
		}
	}
}
