package isa

import (
	"strings"
	"testing"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

func asmKB(t *testing.T) *semnet.KB {
	t.Helper()
	kb := semnet.NewKB()
	col := kb.ColorFor("class")
	kb.MustAddNode("we", col)
	kb.MustAddNode("animate", col)
	kb.Relation("is-a")
	kb.Relation("last")
	return kb
}

const sampleAsm = `
# configuration phase
clear-marker marker=c1
search-node node=we marker=c1 value=0
search-color color=class marker=b0 value=1.5

# propagation
propagate m1=c1 m2=c2 rule=spread(is-a,last) fn=add
propagate m1=c2 m2=b1 rule=path(is-a) fn=nop

# accumulation
and-marker m1=c1 m2=c2 m3=c3 fn=max
not-marker m1=c3 m2=b2 value=2 cond=le
collect-node marker=c3
comm-end
`

func TestAssembleProgram(t *testing.T) {
	kb := asmKB(t)
	p, err := NewAssembler(kb).Assemble(strings.NewReader(sampleAsm))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 9 {
		t.Fatalf("assembled %d instructions", p.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Rules.Len() != 2 {
		t.Fatalf("rule table = %d", p.Rules.Len())
	}
	in := p.Instrs[1]
	if in.Op != OpSearchNode || in.M1 != semnet.MarkerID(1) {
		t.Fatalf("search-node parsed as %+v", in)
	}
	if p.Instrs[2].Value != 1.5 {
		t.Error("value operand")
	}
	if p.Instrs[6].Cond != CondLE || p.Instrs[6].Value != 2 {
		t.Error("not-marker operands")
	}
}

func TestAssembleErrors(t *testing.T) {
	kb := asmKB(t)
	cases := []string{
		"bogus-op marker=c1",
		"search-node node=missing marker=c1",
		"search-node node=we marker=z1",
		"search-node node=we marker=c99",
		"search-node node=we marker=b99",
		"propagate m1=c1 m2=c2 fn=add", // missing rule
		"propagate m1=c1 m2=c2 rule=warp(is-a) fn=add",
		"propagate m1=c1 m2=c2 rule=spread(is-a) fn=add", // arity
		"propagate m1=c1 m2=c2 rule=spread(is-a,last) fn=frobnicate",
		"search-node node=we marker=c1 value=abc",
		"search-node node=we marker",
		"search-node unknownkey=1",
		"not-marker m1=c1 m2=c2 cond=sideways",
	}
	for _, src := range cases {
		if _, err := NewAssembler(kb).Assemble(strings.NewReader(src)); err == nil {
			t.Errorf("%q should fail to assemble", src)
		}
	}
}

// TestNextFieldMatchesFields holds the assembler's allocation-free
// splitter to strings.Fields, which it replaced: on its ASCII fast path
// (space and tab around printable ASCII) and on the unicode.IsSpace path
// it falls back to at any other control byte or any non-ASCII byte, at
// the start of a field, inside one and between two. It also checks that
// mixed-case lines still assemble to the program their lower-case form
// does.
func TestNextFieldMatchesFields(t *testing.T) {
	lines := []string{
		"", " ", "\t \t", "comm-end", "collect-node marker=c3",
		"search-node   node=we\tmarker=c1 \v value=0 ",
		"search-node\u00a0node=we\u2003marker=c1\u0085value=0",
		"a\xffb \xff", "µ=1 é", "a\x7fb c\x7f", "\x00", "\x7f",
	}
	// Every separator and every in-field byte the fast path hands over,
	// each between two fields, leading, trailing, and inside a field.
	for _, odd := range []string{
		"\v", "\f", "\r", "\n", "\x00", "\x01", "\x1f", "\x7f", "\u0085", "\u00a0",
		"\u2028", "\u3000", "é", "\xff", "\xc3", "\xe2\x80",
	} {
		lines = append(lines,
			"ab"+odd+"cd", odd+"ab cd", "ab cd"+odd, "ab "+odd+" cd", "ab\t"+odd+"cd",
			odd, odd+odd, " "+odd+" ", "x=1"+odd+odd+"y=2 z")
	}
	for _, line := range lines {
		var got []string
		for f, rest := nextField(line); f != ""; f, rest = nextField(rest) {
			got = append(got, f)
		}
		if want := strings.Fields(line); strings.Join(got, "|") != strings.Join(want, "|") || len(got) != len(want) {
			t.Errorf("%q split into %q, strings.Fields gives %q", line, got, want)
		}
	}
	const line = "propagate m1=c1 m2=c2 rule=spread(is-a,last) fn=add"
	if n := testing.AllocsPerRun(100, func() {
		for f, rest := nextField(line); f != ""; f, rest = nextField(rest) {
		}
	}); n != 0 {
		t.Errorf("splitting a line allocates %v times", n)
	}

	kb := asmKB(t)
	lower, err := NewAssembler(kb).Assemble(strings.NewReader(sampleAsm))
	if err != nil {
		t.Fatal(err)
	}
	// Operand values (node, relation and color names) are case-sensitive;
	// opcodes and operand keys are not.
	mixed := strings.NewReplacer(
		"search-node node=", "Search-Node NODE=", "propagate m1=", "PROPAGATE M1=",
		"collect-node marker=", "COLLECT-NODE Marker=", "fn=add", "FN=add").Replace(sampleAsm)
	upper, err := NewAssembler(kb).Assemble(strings.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	if lower.Hash() != upper.Hash() {
		t.Error("a mixed-case program assembled differently from its lower-case form")
	}
}

func TestAssembleNumericNode(t *testing.T) {
	kb := asmKB(t)
	p, err := NewAssembler(kb).Assemble(strings.NewReader("search-node node=1 marker=c0 value=0"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Node != semnet.NodeID(1) {
		t.Fatal("numeric node id")
	}
}

// Disassembling and re-assembling every instruction form must round-trip.
func TestAsmRoundTrip(t *testing.T) {
	kb := asmKB(t)
	we, _ := kb.Lookup("we")
	anim, _ := kb.Lookup("animate")
	isa := kb.Relation("is-a")
	last := kb.Relation("last")
	col := kb.ColorFor("class")

	p := NewProgram()
	p.Create(we, isa, 0.5, anim)
	p.Delete(we, isa, anim)
	p.SetColor(we, col)
	p.SearchNode(we, 1, 0.25)
	p.SearchRelation(isa, 2, 0)
	p.SearchColor(col, semnet.Binary(3), 1)
	p.Propagate(1, 2, rules.Spread(isa, last), semnet.FuncAdd)
	p.MarkerCreate(2, isa, anim, last, true)
	p.MarkerDelete(2, isa, anim, last, true)
	p.MarkerSetColor(2, col)
	p.And(1, 2, 3, semnet.FuncMax)
	p.Or(1, 2, 3, semnet.FuncMin)
	p.Not(1, semnet.Binary(2), 2, CondGT)
	p.Set(4, 9)
	p.ClearM(4)
	p.Func(4, semnet.FuncMul, 3)
	p.CollectNode(4)
	p.CollectRelation(4, isa)
	p.CollectColor(4)
	p.Barrier()

	var src strings.Builder
	for i := range p.Instrs {
		src.WriteString(disassemble(&p.Instrs[i], kb, p.Rules))
		src.WriteByte('\n')
	}
	p2, err := NewAssembler(kb).Assemble(strings.NewReader(src.String()))
	if err != nil {
		t.Fatalf("reassemble:\n%s\n%v", src.String(), err)
	}
	if p2.Len() != p.Len() {
		t.Fatalf("round trip length %d != %d", p2.Len(), p.Len())
	}
	for i := range p.Instrs {
		a, b := p.Instrs[i], p2.Instrs[i]
		// Rule tokens may renumber; compare everything else.
		a.Rule, b.Rule = 0, 0
		if a != b {
			t.Errorf("instruction %d: %+v != %+v\nasm: %s", i, a, b,
				disassemble(&p.Instrs[i], kb, p.Rules))
		}
	}
}

// TestAssembleAllocations fences what assembling costs the engine on a
// cache miss, for the three query templates the serve-cold workload
// sends, rendered as the benchmark renders them: the program, its rule
// table, the table's rule slice and its one (spec, token) pair, and the
// instruction slice reserved once from the lines that hold an
// instruction. It also holds the reservation to its cap: a 1 MiB body of
// newlines assembles to an empty program without reserving room for a
// million instructions.
func TestAssembleAllocations(t *testing.T) {
	kb := asmKB(t)
	kb.MustAddNode("dog", kb.ColorFor("class"))
	kb.Relation("subsumes")
	asm := NewAssembler(kb).LookupOnly()
	for _, c := range []struct {
		name, src string
		allocs    float64
	}{
		{"inherit", "search-node node=dog marker=c1 value=7\n" +
			"propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n" +
			"collect-node marker=c2\n", 5},
		{"subsume", "search-node node=animate marker=c1 value=7\n" +
			"propagate m1=c1 m2=c2 rule=path(subsumes) fn=add\n" +
			"collect-node marker=c2\n", 5},
		{"classify", "search-node node=dog marker=c1 value=7\n" +
			"search-node node=we marker=c3 value=7\n" +
			"propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n" +
			"propagate m1=c3 m2=c4 rule=path(is-a) fn=add\n" +
			"and-marker m1=c2 m2=c4 m3=c5 fn=add\n" +
			"collect-node marker=c5\n", 5},
	} {
		var p *Program
		src := "# " + c.name + "\n" + c.src // a comment line holds no instruction
		n := testing.AllocsPerRun(100, func() {
			var err error
			if p, err = asm.AssembleString(src); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations", c.name, n)
		if n > c.allocs {
			t.Errorf("assembling %s allocates %v times, want at most %v", c.name, n, c.allocs)
		}
		if cap(p.Instrs) != p.Len() {
			t.Errorf("%s: %d instructions kept in a capacity of %d", c.name, p.Len(), cap(p.Instrs))
		}
	}

	p, err := asm.AssembleString(strings.Repeat("\n", 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 || cap(p.Instrs) > maxPresize {
		t.Errorf("a body of newlines assembled %d instructions into a capacity of %d, want 0 into at most %d",
			p.Len(), cap(p.Instrs), maxPresize)
	}
}
