package rules

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"snap1/internal/semnet"
)

const (
	rA semnet.RelType = 1
	rB semnet.RelType = 2
	rC semnet.RelType = 3
)

func compile(t *testing.T, spec Spec) *Compiled {
	t.Helper()
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStepRule(t *testing.T) {
	c := compile(t, Step(rA))
	next, ok := c.Next(0, rA)
	if !ok || next != 1 {
		t.Fatalf("step: Next(0,rA) = %d,%v", next, ok)
	}
	if _, ok := c.Next(0, rB); ok {
		t.Error("step must not follow other relations")
	}
	if !c.Terminal(1) {
		t.Error("step state 1 must be terminal")
	}
	if c.Terminal(0) {
		t.Error("step state 0 must not be terminal")
	}
}

func TestPathRule(t *testing.T) {
	c := compile(t, Path(rA))
	next, ok := c.Next(0, rA)
	if !ok || next != 0 {
		t.Fatal("path must loop in state 0")
	}
	if c.Terminal(0) {
		t.Error("path state 0 is never terminal")
	}
}

func TestSpreadRule(t *testing.T) {
	c := compile(t, Spread(rA, rB))
	if next, ok := c.Next(0, rA); !ok || next != 0 {
		t.Error("spread state 0 follows r1 chains")
	}
	if next, ok := c.Next(0, rB); !ok || next != 1 {
		t.Error("spread state 0 switches on r2")
	}
	if next, ok := c.Next(1, rB); !ok || next != 1 {
		t.Error("spread state 1 follows r2 chains")
	}
	if _, ok := c.Next(1, rA); ok {
		t.Error("after the switch, r1 links must not be followed")
	}
}

func TestSeqRule(t *testing.T) {
	c := compile(t, Seq(rA, rB))
	s1, ok := c.Next(0, rA)
	if !ok || s1 != 1 {
		t.Fatal("seq first hop")
	}
	s2, ok := c.Next(1, rB)
	if !ok || s2 != 2 {
		t.Fatal("seq second hop")
	}
	if !c.Terminal(2) {
		t.Error("seq ends after two hops")
	}
	if _, ok := c.Next(0, rB); ok {
		t.Error("seq must not take r2 first")
	}
}

func TestCombRule(t *testing.T) {
	c := compile(t, Comb(rA, rB))
	for _, r := range []semnet.RelType{rA, rB} {
		if next, ok := c.Next(0, r); !ok || next != 0 {
			t.Errorf("comb must follow %d freely", r)
		}
	}
	if _, ok := c.Next(0, rC); ok {
		t.Error("comb must not follow unrelated types")
	}
}

func TestCompileUnknownKind(t *testing.T) {
	if _, err := Compile(Spec{Kind: Kind(99)}); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{KindStep, KindPath, KindSpread, KindSeq, KindComb} {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d missing name", k)
		}
	}
}

func TestTableInterning(t *testing.T) {
	tbl := NewTable()
	tok1, err := tbl.Add(Spread(rA, rB))
	if err != nil {
		t.Fatal(err)
	}
	tok2, err := tbl.Add(Spread(rA, rB))
	if err != nil {
		t.Fatal(err)
	}
	if tok1 != tok2 {
		t.Error("identical specs must share a token")
	}
	tok3, _ := tbl.Add(Spread(rA, rC))
	if tok3 == tok1 {
		t.Error("different specs must not share a token")
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d", tbl.Len())
	}
	if tbl.Rule(0) != nil {
		t.Error("token 0 is reserved")
	}
	if tbl.Rule(Token(200)) != nil {
		t.Error("unknown token must resolve to nil")
	}
	if tbl.Rule(tok1).Spec() != Spread(rA, rB) {
		t.Error("rule spec")
	}
}

func TestTableCustomAndCapacity(t *testing.T) {
	tbl := NewTable()
	c := compile(t, Path(rA))
	tok, err := tbl.AddCustom(c)
	if err != nil || tbl.Rule(tok) != c {
		t.Fatal("custom rule round trip")
	}
	// Fill to capacity: 255 rules total.
	for i := tbl.Len(); i < 255; i++ {
		if _, err := tbl.Add(Spec{Kind: KindPath, R1: semnet.RelType(i)}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := tbl.Add(Spec{Kind: KindPath, R1: 60000}); err == nil {
		t.Error("table overflow must fail")
	}
}

func TestNextOutOfRangeState(t *testing.T) {
	c := compile(t, Path(rA))
	if _, ok := c.Next(7, rA); ok {
		t.Error("out-of-range state must not follow")
	}
	if !c.Terminal(7) {
		t.Error("out-of-range state is terminal")
	}
}

// TestTableAddPinned holds Table.Add to the tokens it gave when specs were
// keyed by a formatted string and compiled afresh per table, and to the
// specs it keeps: program hashes are built from both.
func TestTableAddPinned(t *testing.T) {
	tbl := NewTable()
	for _, c := range []struct {
		spec Spec
		tok  Token
		want Spec
	}{
		{Step(1), 1, Step(1)},
		{Path(1), 2, Path(1)},
		{Spread(1, 2), 3, Spread(1, 2)},
		{Seq(1, 2), 4, Seq(1, 2)},
		{Comb(1, 2), 5, Comb(1, 2)},
		{Path(1), 2, Path(1)},
		{Step(2), 6, Step(2)},
		// An R2 a single-relation kind ignores is put to 0: the spec is
		// step(1) and shares its token.
		{Spec{Kind: KindStep, R1: 1, R2: 9}, 1, Step(1)},
		{Spec{Kind: KindPath, R1: 1, R2: 9}, 2, Path(1)},
	} {
		tok, err := tbl.Add(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec := tbl.Rule(tok).Spec(); tok != c.tok || spec != c.want {
			t.Errorf("%v: token %d spec %v, want %d %v", c.spec, tok, spec, c.tok, c.want)
		}
	}
	// AddCustom gives every call a token of its own, the same rule or not
	// (a fused program relies on it: one token per member PROPAGATE).
	c := compile(t, Path(rA))
	tok1, _ := tbl.AddCustom(c)
	tok2, _ := tbl.AddCustom(c)
	if tok1 == tok2 || tbl.Rule(tok1) != c || tbl.Rule(tok2) != c {
		t.Errorf("AddCustom tokens %d, %d", tok1, tok2)
	}
}

// TestTableSharesOnlyAddedSpecs fences the interning Add does by scanning
// (spec, token) pairs: an identical spec gets the token it got, every
// AddCustom a new one, and a rule AddCustom appended is no spec's token
// even when it was compiled from that spec, so Add(spec) after
// AddCustom(Compile(spec)) takes the next token, as when Add kept a map.
// Re-adding each of a full table's specs finds its own token.
func TestTableSharesOnlyAddedSpecs(t *testing.T) {
	tbl := NewTable()
	spec := Spread(rA, rB)
	custom, err := tbl.AddCustom(compile(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	added, err := tbl.Add(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := tbl.Add(spec)
	other, _ := tbl.AddCustom(tbl.Rule(added))
	if custom != 1 || added != 2 || again != 2 || other != 3 {
		t.Fatalf("AddCustom, Add, Add, AddCustom gave tokens %d %d %d %d, want 1 2 2 3", custom, added, again, other)
	}
	toks := map[Spec]Token{spec: added}
	for i := 0; tbl.Len() < 255; i++ {
		s := Spec{Kind: Kind(i % 5), R1: semnet.RelType(i / 5), R2: 7}
		tok, err := tbl.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		toks[s] = tok
	}
	for s, want := range toks {
		if tok, err := tbl.Add(s); err != nil || tok != want {
			t.Fatalf("re-adding %v to a full table gave token %d (%v), want %d", s, tok, err, want)
		}
	}
	if _, err := tbl.Add(Path(1000)); err == nil {
		t.Error("a new spec in a full table must fail")
	}
}

// TestInternedRulesAreSharedAndImmutable: tables in any number of
// goroutines adding the same specs get the one interned FSM per spec (a
// slot collision may recompile, never corrupt), and reading it from all
// of them at once is race-free — run under -race.
func TestInternedRulesAreSharedAndImmutable(t *testing.T) {
	specs := []Spec{Step(rA), Path(rA), Spread(rA, rB), Seq(rB, rC), Comb(rA, rC)}
	// 300 more specs than the interning table has slots, to force evictions.
	for r := semnet.RelType(10); r < 310; r++ {
		specs = append(specs, Path(r))
	}
	want := make([]*Compiled, len(specs))
	for i, s := range specs {
		want[i] = compile(t, s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				tbl := NewTable()
				for i := range specs {
					j := (i*7 + g) % len(specs) // each goroutine in its own order
					tok, err := tbl.Add(specs[j])
					if err != nil {
						if tbl.Len() == 255 {
							break // the table, not the interning, is full
						}
						t.Error(err)
						return
					}
					r := tbl.Rule(tok)
					if r.Spec() != specs[j] || !reflect.DeepEqual(r.states, want[j].states) {
						t.Errorf("%v resolved to %v %v", specs[j], r.Spec(), r.states)
						return
					}
					if _, ok := r.Next(0, specs[j].R1); !ok || r.Terminal(0) {
						t.Errorf("%v does not follow its own relation", specs[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	a, b := NewTable(), NewTable()
	ta, _ := a.Add(Spread(rA, rB))
	tb, _ := b.Add(Spread(rA, rB))
	if a.Rule(ta) != b.Rule(tb) {
		t.Error("two tables compiled the same spec twice")
	}
}
