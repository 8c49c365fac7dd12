package isa

import (
	"testing"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// meanOverlap is the mean, over the program's instructions, of how many
// immediately preceding instructions each is Independent of.
func meanOverlap(p *Program) float64 {
	if len(p.Instrs) == 0 {
		return 0
	}
	sum := 0
	for i := range p.Instrs {
		for j := i - 1; j >= 0 && Independent(&p.Instrs[i], &p.Instrs[j]); j-- {
			sum++
		}
	}
	return float64(sum) / float64(len(p.Instrs))
}

// chainProgram is the depth-8 chain workload shape: one scratch plane
// reused for every sub-query (forcing a WAR/WAW window flush per
// iteration when compiled naively), one destination plane per chain,
// collects at the end.
func chainProgram(chains int) *Program {
	p := NewProgram()
	spec := rules.Path(1)
	scratch := semnet.MarkerID(semnet.NumComplexMarkers) // binary plane
	for i := 0; i < chains; i++ {
		p.ClearM(scratch)
		p.SearchColor(semnet.Color(i+1), scratch, 1)
		p.Propagate(scratch, semnet.MarkerID(i), spec, semnet.FuncNop)
	}
	for i := 0; i < chains; i++ {
		p.CollectNode(semnet.MarkerID(i))
	}
	p.Barrier()
	return p
}

func TestOptimizeIdentity(t *testing.T) {
	p := chainProgram(4)
	if o := Optimize(p, OptConfig{Level: OptNone}); o.Changed() || o.Program != p {
		t.Error("level 0 must be the identity")
	}
	mut := NewProgram().Create(1, 1, 1, 2)
	if o := Optimize(mut, OptConfig{Level: OptFull}); o.Changed() || o.Program != mut {
		t.Error("mutating programs must pass through unchanged")
	}
	// A complex-destination PROPAGATE with a merge-order-sensitive
	// function: a value tie could commit either origin depending on
	// schedule, undetectably — the optimizer must refuse.
	unsafe := NewProgram()
	unsafe.SearchColor(1, 0, 5)
	unsafe.Propagate(0, 1, rules.Path(1), semnet.FuncMin)
	unsafe.CollectNode(1)
	if o := Optimize(unsafe, OptConfig{Level: OptFull}); o.Changed() {
		t.Error("origin-unsafe propagate function must disable optimization")
	}
	// Identity products still carry a valid index map.
	o := Optimize(p, OptConfig{Level: OptNone})
	if len(o.OrigIndex) != p.Len() {
		t.Fatalf("OrigIndex len = %d, want %d", len(o.OrigIndex), p.Len())
	}
	for i, v := range o.OrigIndex {
		if v != i {
			t.Fatalf("identity OrigIndex[%d] = %d", i, v)
		}
	}
}

func TestPeepholeFolds(t *testing.T) {
	// FUNC on a binary plane is a no-op sweep.
	p := NewProgram()
	p.SearchColor(1, 70, 1)
	p.Func(70, semnet.FuncAdd, 2)
	p.CollectColor(70)
	p.Barrier()
	o := Optimize(p, OptConfig{Level: OptBasic, PreserveMarkers: true})
	if !o.Changed() || o.Program.Len() != 3 || o.InstrsEliminated != 1 {
		t.Fatalf("binary FUNC not folded: len=%d", o.Program.Len())
	}

	// SET v; FUNC add w folds to SET v+w.
	p = NewProgram()
	p.Set(3, 5)
	p.Func(3, semnet.FuncAdd, 2)
	p.CollectNode(3)
	p.Barrier()
	o = Optimize(p, OptConfig{Level: OptBasic, PreserveMarkers: true})
	if o.Program.Len() != 3 {
		t.Fatalf("SET/FUNC not folded: %d instrs", o.Program.Len())
	}
	if in := o.Program.Instrs[0]; in.Op != OpSetMarker || in.Value != 7 {
		t.Fatalf("folded SET = %+v, want value 7", in)
	}

	// AND m,m,m with NOP is the identity; with ADD it doubles values
	// and must survive.
	p = NewProgram()
	p.Set(4, 2)
	p.And(4, 4, 4, semnet.FuncNop)
	p.And(4, 4, 4, semnet.FuncAdd)
	p.CollectNode(4)
	p.Barrier()
	o = Optimize(p, OptConfig{Level: OptBasic, PreserveMarkers: true})
	kept := 0
	for _, in := range o.Program.Instrs {
		if in.Op == OpAndMarker {
			kept++
		}
	}
	if kept != 1 {
		t.Fatalf("AND self-identity folding kept %d of 2", kept)
	}
}

func TestDeadPlaneElimination(t *testing.T) {
	spec := rules.Path(1)
	// A diagnostic propagate whose destination is never collected: dead
	// when markers are unobservable, live when they persist.
	p := NewProgram()
	p.SearchColor(1, 0, 1)
	p.Propagate(0, 1, spec, semnet.FuncNop)
	p.Propagate(0, 2, spec, semnet.FuncNop) // plane 2 never read again
	p.CollectNode(1)
	p.Barrier()
	serve := Optimize(p, OptConfig{Level: OptBasic})
	if serve.Program.Len() != 4 || serve.InstrsEliminated != 1 {
		t.Fatalf("dead propagate kept: %d instrs", serve.Program.Len())
	}
	lib := Optimize(p, OptConfig{Level: OptBasic, PreserveMarkers: true})
	if lib.Changed() {
		t.Fatal("with observable markers the propagate is live")
	}

	// Register-file liveness: SET overwrites status and values but not
	// origin registers, and COLLECT-NODE reports origins — the SEARCH
	// that wrote them is live even though a full-status kill follows.
	p = NewProgram()
	p.SearchColor(1, 5, 9)
	p.Set(5, 3)
	p.CollectNode(5)
	p.Barrier()
	o := Optimize(p, OptConfig{Level: OptBasic})
	if o.Changed() {
		t.Fatal("SEARCH origins observable through SET must not be eliminated")
	}
	// Same shape but CLEAR+SEARCH after: the first SEARCH is dead — the
	// second lifetime re-defines every register a reader can see.
	p = NewProgram()
	p.SearchColor(1, 5, 9)
	p.ClearM(5)
	p.SearchColor(2, 5, 4)
	p.CollectNode(5)
	p.Barrier()
	o = Optimize(p, OptConfig{Level: OptBasic})
	if o.InstrsEliminated != 1 || o.Program.Instrs[0].Op != OpClearMarker {
		t.Fatalf("shadowed SEARCH not eliminated: %d gone", o.InstrsEliminated)
	}
}

func TestRenamingSplitsHazardChain(t *testing.T) {
	p := chainProgram(8)
	o := Optimize(p, OptConfig{Level: OptFull})
	if !o.Changed() {
		t.Fatal("chain workload must change at O2")
	}
	before, after := meanOverlap(p), meanOverlap(o.Program)
	if after <= before {
		t.Fatalf("mean overlap %0.2f -> %0.2f: not improved", before, after)
	}
	// As written, every body instruction conflicts with its neighbor
	// (scratch reuse), so nothing overlaps and every PROPAGATE flushes
	// its own window. Renamed, only the true per-chain dependencies
	// remain and all 8 propagates share one overlap window.
	if before != 0 {
		t.Fatalf("naive chain should have zero overlap, got %0.2f", before)
	}
	if w := programWindows(p); w != 8 {
		t.Fatalf("naive chain should flush 8 windows, got %d", w)
	}
	if w := programWindows(o.Program); w != 1 {
		t.Fatalf("optimized chain should flush 1 window, got %d", w)
	}
}

// programWindows counts the PROPAGATE overlap windows a whole program
// would flush on the PU.
func programWindows(p *Program) int {
	batches := propBatches(p.Instrs)
	seen := make(map[int]bool)
	for _, b := range batches {
		if b >= 0 {
			seen[b] = true
		}
	}
	return len(seen)
}

func TestRenamingPacksDisjointRegions(t *testing.T) {
	// Two sub-queries separated by a serializing collect, each on its
	// own scratch plane: region-disjoint lifetimes pack onto one plane
	// and demand shrinks.
	spec := rules.Path(1)
	p := NewProgram()
	p.ClearM(10)
	p.SearchColor(1, 10, 1)
	p.Propagate(10, 0, spec, semnet.FuncNop)
	p.CollectNode(0)
	p.ClearM(11)
	p.SearchColor(2, 11, 1)
	p.Propagate(11, 1, spec, semnet.FuncNop)
	p.CollectNode(1)
	p.Barrier()
	o := Optimize(p, OptConfig{Level: OptFull})
	if !o.Changed() || o.PlanesFreed < 1 {
		t.Fatalf("expected demand reduction, PlanesFreed=%d changed=%v",
			o.PlanesFreed, o.Changed())
	}
	oc, ob := PlaneDemand(o.Program)
	c, b := PlaneDemand(p)
	if oc+ob >= c+b {
		t.Fatalf("demand %d+%d -> %d+%d", c, b, oc, ob)
	}
}

func TestRenamingPreserveModePinsFinalState(t *testing.T) {
	// With observable markers, the scratch plane's final lifetime stays
	// home and no untouched plane may host a guest. The chain program's
	// scratch webs are all CLEAR-started, so earlier lifetimes may
	// still relocate among used planes — but demand must not grow.
	p := chainProgram(4)
	o := Optimize(p, OptConfig{Level: OptFull, PreserveMarkers: true})
	oc, ob := PlaneDemand(o.Program)
	c, b := PlaneDemand(p)
	if oc > c || ob > b {
		t.Fatalf("preserve mode grew demand: %d+%d -> %d+%d", c, b, oc, ob)
	}
	pm := p.Markers()
	o.Program.Markers().ForEach(func(m semnet.MarkerID) {
		if !pm.Contains(m) {
			t.Fatalf("preserve mode touched unused plane %d", m)
		}
	})
}

func TestSchedulingMergesWindows(t *testing.T) {
	// Two true-dependence chains interleaved so that, as written, the
	// PU flushes three windows — {P0}, {P1,P2}, {P3} — even though the
	// chains are mutually independent: P1 reads P0's output while P2 is
	// still upstream. Renaming cannot help (every dependence is true);
	// only the level schedule {P0,P2},{P1,P3} merges a window, which is
	// exactly when the scheduler is allowed to reorder.
	spec := rules.Path(1)
	p := NewProgram()
	p.SearchColor(1, 10, 1)
	p.Propagate(10, 0, spec, semnet.FuncNop)
	p.Propagate(0, 1, spec, semnet.FuncNop)
	p.Propagate(10, 2, spec, semnet.FuncNop)
	p.Propagate(2, 3, spec, semnet.FuncNop)
	p.CollectNode(1)
	p.CollectNode(3)
	p.Barrier()
	if w := programWindows(p); w != 3 {
		t.Fatalf("source order should flush 3 windows, got %d", w)
	}
	o := Optimize(p, OptConfig{Level: OptFull})
	if !o.Changed() {
		t.Fatal("interleaved chains must be rescheduled")
	}
	if w := programWindows(o.Program); w != 2 {
		t.Fatalf("schedule should merge to 2 windows, got %d", w)
	}
	if before, after := meanOverlap(p), meanOverlap(o.Program); after <= before {
		t.Fatalf("mean overlap %0.2f -> %0.2f", before, after)
	}

	// An interleaving whose source order already forms one window must
	// NOT be reordered: there is no barrier to merge, and shifting
	// issue slots around is pure timing noise.
	q := NewProgram()
	q.SearchColor(1, 10, 1)
	q.Propagate(10, 0, spec, semnet.FuncNop)
	q.SearchColor(2, 11, 1)
	q.Propagate(11, 1, spec, semnet.FuncNop)
	q.CollectNode(0)
	q.CollectNode(1)
	q.Barrier()
	if w := programWindows(q); w != 1 {
		t.Fatalf("benign interleaving should already be 1 window, got %d", w)
	}
	if oq := Optimize(q, OptConfig{Level: OptFull}); oq.Changed() {
		t.Fatal("nothing to merge: program must pass through unchanged")
	}
}

func TestOptimizeKeepsSerializingOrder(t *testing.T) {
	p := chainProgram(6)
	o := Optimize(p, OptConfig{Level: OptFull})
	var want, got []Opcode
	for _, in := range p.Instrs {
		if in.Serializing() {
			want = append(want, in.Op)
		}
	}
	for _, in := range o.Program.Instrs {
		if in.Serializing() {
			got = append(got, in.Op)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("serializing count %d -> %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("serializing order changed at %d: %v -> %v", i, want, got)
		}
	}
}

func TestOrigIndexMapping(t *testing.T) {
	p := chainProgram(5)
	for _, cfg := range []OptConfig{
		{Level: OptBasic}, {Level: OptFull}, {Level: OptFull, PreserveMarkers: true},
	} {
		o := Optimize(p, cfg)
		if len(o.OrigIndex) != o.Program.Len() {
			t.Fatalf("cfg %+v: OrigIndex len %d != %d", cfg, len(o.OrigIndex), o.Program.Len())
		}
		seen := make(map[int]bool)
		for i, orig := range o.OrigIndex {
			if orig < 0 || orig >= p.Len() {
				t.Fatalf("cfg %+v: OrigIndex[%d]=%d out of range", cfg, i, orig)
			}
			if seen[orig] {
				t.Fatalf("cfg %+v: original instr %d mapped twice", cfg, orig)
			}
			seen[orig] = true
			if o.Program.Instrs[i].Op != p.Instrs[orig].Op {
				t.Fatalf("cfg %+v: opcode mismatch at %d", cfg, i)
			}
		}
	}
}

func TestRuleTableDedup(t *testing.T) {
	// Two identical rules added as separate custom entries: the
	// optimized table collapses them to one token.
	r1, err := rules.Compile(rules.Path(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rules.Compile(rules.Path(1))
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram()
	p.SearchColor(1, 0, 1)
	p.PropagateCustom(0, 1, r1, semnet.FuncNop)
	p.PropagateCustom(0, 2, r2, semnet.FuncNop)
	p.CollectNode(1)
	p.CollectNode(2)
	p.Barrier()
	if p.Rules.Len() < 2 {
		t.Skip("builder already de-duplicated; nothing to test")
	}
	o := Optimize(p, OptConfig{Level: OptBasic})
	if !o.Changed() {
		t.Fatal("rule dedup must mark the program changed")
	}
	if o.Program.Rules.Len() != 1 {
		t.Fatalf("optimized table has %d rules, want 1", o.Program.Rules.Len())
	}
	if o.Program.Instrs[1].Rule != o.Program.Instrs[2].Rule {
		t.Fatal("identical rules must share a token")
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	progs := map[string]*Program{
		"chain4": chainProgram(4),
		"chain8": chainProgram(8),
	}
	spec := rules.Path(1)
	mixed := NewProgram()
	mixed.Set(3, 5)
	mixed.Func(3, semnet.FuncAdd, 1)
	mixed.SearchColor(1, 10, 1)
	mixed.Propagate(10, 0, spec, semnet.FuncNop)
	mixed.And(0, 3, 4, semnet.FuncNop)
	mixed.CollectNode(4)
	mixed.ClearM(10)
	mixed.SearchColor(2, 10, 1)
	mixed.Propagate(10, 5, spec, semnet.FuncAdd)
	mixed.CollectNode(5)
	mixed.Barrier()
	progs["mixed"] = mixed
	for name, p := range progs {
		for _, cfg := range []OptConfig{
			{Level: OptBasic}, {Level: OptFull}, {Level: OptFull, PreserveMarkers: true},
		} {
			once := Optimize(p, cfg)
			twice := Optimize(once.Program, cfg)
			if twice.Changed() {
				t.Fatalf("%s %+v: second optimization changed the program again\nonce:  %v\ntwice: %v",
					name, cfg, once.Program.Instrs, twice.Program.Instrs)
			}
		}
	}
}

func TestOptimizedProgramsValidate(t *testing.T) {
	for name, p := range map[string]*Program{
		"chain8": chainProgram(8),
		"chain1": chainProgram(1),
	} {
		for _, lvl := range []int{OptBasic, OptFull} {
			o := Optimize(p, OptConfig{Level: lvl})
			if err := o.Program.Validate(); err != nil {
				t.Fatalf("%s O%d: optimized program invalid: %v", name, lvl, err)
			}
		}
	}
}
