package isa

import (
	"errors"
	"testing"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

func chainQuery(rel semnet.RelType, color semnet.Color, v float32) *Program {
	p := NewProgram()
	p.SearchColor(color, 0, v)
	p.Propagate(0, 1, rules.Path(rel), semnet.FuncAdd)
	p.Barrier()
	p.CollectNode(1)
	return p
}

func TestFuseDisjointPlanes(t *testing.T) {
	progs := []*Program{
		chainQuery(1, 10, 1),
		chainQuery(1, 11, 2),
		chainQuery(2, 12, 3),
	}
	f, err := Fuse(progs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Program.Validate(); err != nil {
		t.Fatalf("fused program invalid: %v", err)
	}
	if got, want := len(f.Program.Instrs), 4*len(progs); got != want {
		t.Fatalf("fused length = %d, want %d", got, want)
	}

	// Per-query marker footprints must be pairwise disjoint, and every
	// pair of instructions from different queries marker-disjoint.
	var perQ [3]MarkerSet
	for i := range f.Program.Instrs {
		in := &f.Program.Instrs[i]
		q := f.InstrOf(i).Query
		perQ[q] = perQ[q].Union(in.Reads()).Union(in.Writes())
	}
	for a := 0; a < len(progs); a++ {
		for b := a + 1; b < len(progs); b++ {
			if perQ[a].Intersects(perQ[b]) {
				t.Fatalf("queries %d and %d share planes", a, b)
			}
		}
	}
	for i := range f.Program.Instrs {
		for j := i + 1; j < len(f.Program.Instrs); j++ {
			if f.InstrOf(i).Query == f.InstrOf(j).Query {
				continue
			}
			if !markerDisjoint(&f.Program.Instrs[i], &f.Program.Instrs[j]) {
				t.Fatalf("instrs %d and %d from different queries not disjoint", i, j)
			}
		}
	}

	// Demux metadata round-trips: each origin (query, index) appears
	// exactly once, and the renamed instruction matches the source
	// instruction's shape.
	seen := map[FusedOrigin]bool{}
	for i := range f.Program.Instrs {
		o := f.InstrOf(i)
		if seen[o] {
			t.Fatalf("origin %+v duplicated", o)
		}
		seen[o] = true
		src := progs[o.Query].Instrs[o.Index]
		got := f.Program.Instrs[i]
		if got.Op != src.Op || got.Fn != src.Fn {
			t.Fatalf("instr %d: op/fn mismatch with source %+v", i, o)
		}
		if got.Op != OpCommEnd && got.M1 != f.MarkerOf(o.Query, src.M1) {
			t.Fatalf("instr %d: M1 %d != rename(%d)", i, got.M1, src.M1)
		}
	}
	if len(seen) != 4*len(progs) {
		t.Fatalf("%d origins, want %d", len(seen), 4*len(progs))
	}
}

// TestFusePerQueryCommEnd pins the COMM-END regression: fused programs
// must not share one global barrier — each sub-program keeps its own
// COMM-END, and COMM-END stays serializing while being marker-disjoint
// with everything.
func TestFusePerQueryCommEnd(t *testing.T) {
	progs := []*Program{
		chainQuery(1, 10, 1),
		chainQuery(1, 11, 2),
	}
	f, err := Fuse(progs)
	if err != nil {
		t.Fatal(err)
	}
	ends := map[int]int{} // query -> COMM-END count
	total := 0
	for i := range f.Program.Instrs {
		if f.Program.Instrs[i].Op == OpCommEnd {
			ends[f.InstrOf(i).Query]++
			total++
		}
	}
	if total != 2 || ends[0] != 1 || ends[1] != 1 {
		t.Fatalf("COMM-END per query = %v (total %d), want one each", ends, total)
	}

	ce := Instruction{Op: OpCommEnd}
	pr := prop(0, 1)
	if !ce.Serializing() {
		t.Fatal("COMM-END must serialize")
	}
	if !markerDisjoint(&ce, &pr) {
		t.Fatal("COMM-END touches no markers; must be marker-disjoint with everything")
	}
	if !markerDisjoint(&ce, &ce) {
		t.Fatal("two COMM-ENDs must be marker-disjoint")
	}
}

func TestFuseRejects(t *testing.T) {
	good := func() *Program { return chainQuery(1, 10, 1) }

	t.Run("count", func(t *testing.T) {
		_, err := Fuse([]*Program{good()})
		wantReason(t, err, FuseReasonCount)
	})

	t.Run("mutating", func(t *testing.T) {
		bad := good()
		bad.Create(1, 2, 1.0, 3)
		_, err := Fuse([]*Program{good(), bad})
		wantReason(t, err, FuseReasonMutating)
		if ok, reason := Fusable(bad); ok || reason != FuseReasonMutating {
			t.Fatalf("Fusable = %v,%q", ok, reason)
		}
	})

	t.Run("fn", func(t *testing.T) {
		bad := NewProgram()
		bad.SearchColor(10, 0, 1)
		// MIN onto a complex plane: origin attribution is schedule-
		// dependent, so fusion must reject it.
		bad.Propagate(0, 1, rules.Path(1), semnet.FuncMin)
		bad.Barrier()
		bad.CollectNode(1)
		_, err := Fuse([]*Program{good(), bad})
		wantReason(t, err, FuseReasonFn)

		// The same function onto a binary plane has no origin register
		// and stays fusable.
		okP := NewProgram()
		okP.SearchColor(10, 0, 1)
		okP.Propagate(0, semnet.Binary(0), rules.Path(1), semnet.FuncMin)
		okP.Barrier()
		okP.CollectNode(semnet.Binary(0))
		if _, err := Fuse([]*Program{good(), okP}); err != nil {
			t.Fatalf("binary-destination MIN should fuse: %v", err)
		}
	})

	t.Run("planes", func(t *testing.T) {
		// Each chain query needs 2 complex rows; 33 of them exceed 64.
		progs := make([]*Program, 33)
		for i := range progs {
			progs[i] = good()
		}
		_, err := Fuse(progs)
		wantReason(t, err, FuseReasonPlanes)
		// 32 fit exactly.
		if _, err := Fuse(progs[:32]); err != nil {
			t.Fatalf("32x2 complex rows should fit: %v", err)
		}
	})
}

func wantReason(t *testing.T, err error, reason string) {
	t.Helper()
	if err == nil {
		t.Fatal("want error, got nil")
	}
	if !errors.Is(err, ErrNotFusable) {
		t.Fatalf("error %v does not wrap ErrNotFusable", err)
	}
	var fe *FuseError
	if !errors.As(err, &fe) || fe.Reason != reason {
		t.Fatalf("error %v, want reason %q", err, reason)
	}
}

// TestFuseClassPreserved: renaming keeps marker class, so binary planes
// land on binary rows and complex on complex.
func TestFuseClassPreserved(t *testing.T) {
	mk := func(c semnet.Color) *Program {
		p := NewProgram()
		p.SearchColor(c, 7, 1)
		p.Propagate(7, semnet.Binary(9), rules.Path(1), semnet.FuncNop)
		p.Barrier()
		p.CollectNode(semnet.Binary(9))
		return p
	}
	f, err := Fuse([]*Program{mk(1), mk(2)})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2; q++ {
		if m := f.MarkerOf(q, 7); !m.IsComplex() {
			t.Fatalf("query %d complex marker renamed to binary %d", q, m)
		}
		if m := f.MarkerOf(q, semnet.Binary(9)); m.IsComplex() {
			t.Fatalf("query %d binary marker renamed to complex %d", q, m)
		}
	}
	if f.MarkerOf(0, 7) == f.MarkerOf(1, 7) {
		t.Fatal("complex planes collide")
	}
	if f.MarkerOf(0, semnet.Binary(9)) == f.MarkerOf(1, semnet.Binary(9)) {
		t.Fatal("binary planes collide")
	}
}

// markerDisjoint reports whether a and b touch disjoint marker planes:
// no write of either intersects the reads or writes of the other. It
// ignores the serializing property, so COMM-END (which uses no markers)
// is disjoint with everything — the condition under which renamed
// sub-programs may be concatenated into one fused program without their
// instructions interfering.
func markerDisjoint(a, b *Instruction) bool {
	aw, bw := a.Writes(), b.Writes()
	return !aw.Intersects(b.Reads()) && !aw.Intersects(bw) &&
		!bw.Intersects(a.Reads())
}
