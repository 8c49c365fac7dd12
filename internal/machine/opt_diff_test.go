package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// Differential testing for the ISA optimizer: an optimized program must
// be observationally identical to the program as written — same
// collections (nodes, values, origins, order, instruction attribution)
// and, in preserve mode, the same final marker state including value
// AND origin registers wherever a status bit is set. Virtual time may
// only improve.

// fullState captures everything the optimizer promises to preserve.
type fullState struct {
	markers     map[string]string // "node/plane" -> "value@origin"
	collections []string
}

func captureFull(m *Machine, kb *semnet.KB, res *Result) fullState {
	st := fullState{markers: make(map[string]string)}
	for id := 0; id < kb.NumNodes(); id++ {
		for mk := 0; mk < semnet.NumMarkers; mk++ {
			n, pl := semnet.NodeID(id), semnet.MarkerID(mk)
			if m.TestMarker(n, pl) {
				st.markers[fmt.Sprintf("%d/%d", id, mk)] =
					fmt.Sprintf("%v@%d", m.MarkerValue(n, pl), m.MarkerOrigin(n, pl))
			}
		}
	}
	for _, c := range res.Collections {
		for _, it := range c.Items {
			st.collections = append(st.collections,
				fmt.Sprintf("%d:%d=%v@%d/%d:%v", c.Instr, it.Node, it.Value,
					it.Origin, it.Color, it.Weight))
		}
	}
	return st
}

func diffFull(t *testing.T, label string, a, b fullState) {
	t.Helper()
	if len(a.markers) != len(b.markers) {
		t.Fatalf("%s: %d vs %d set markers", label, len(a.markers), len(b.markers))
	}
	for k, v := range a.markers {
		if b.markers[k] != v {
			t.Fatalf("%s: marker %s: %s vs %s", label, k, v, b.markers[k])
		}
	}
	if len(a.collections) != len(b.collections) {
		t.Fatalf("%s: %d vs %d collection rows", label, len(a.collections), len(b.collections))
	}
	for i := range a.collections {
		if a.collections[i] != b.collections[i] {
			t.Fatalf("%s: collection row %d: %s vs %s",
				label, i, a.collections[i], b.collections[i])
		}
	}
}

func newTestMachine(t *testing.T, kb *semnet.KB, clusters int) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Clusters = clusters
	cfg.NodesPerCluster = kb.NumNodes() + 32
	cfg.MaxDepth = 32
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		m.Close()
		t.Fatal(err)
	}
	return m
}

// randomOptProgram is the tape-driven generator for optimizer fuzzing.
// It favors origin-safe propagate functions (so the optimizer usually
// engages) but still emits MIN/MAX onto complex destinations sometimes,
// exercising the bail-to-identity path; the plane pool is kept small so
// lifetimes collide and renaming has real hazards to chew on.
func randomOptProgram(rng *rand.Rand, kb *semnet.KB, rels []semnet.RelType, cols []semnet.Color) *isa.Program {
	p := isa.NewProgram()
	planes := []semnet.MarkerID{0, 1, 2, 3, 64, 65}
	mk := func() semnet.MarkerID { return planes[rng.Intn(len(planes))] }
	safeFns := []semnet.FuncCode{semnet.FuncNop, semnet.FuncAdd, semnet.FuncDec}
	fn := func() semnet.FuncCode {
		if rng.Intn(8) == 0 {
			return semnet.FuncMin // origin-unsafe on complex dests: bail path
		}
		return safeFns[rng.Intn(len(safeFns))]
	}
	rel := func() semnet.RelType { return rels[rng.Intn(len(rels))] }
	spec := func() rules.Spec {
		switch rng.Intn(3) {
		case 0:
			return rules.Step(rel())
		case 1:
			return rules.Path(rel())
		default:
			return rules.Spread(rel(), rel())
		}
	}
	steps := 8 + rng.Intn(24)
	for i := 0; i < steps; i++ {
		switch rng.Intn(14) {
		case 0:
			p.SearchNode(semnet.NodeID(rng.Intn(kb.NumNodes())), mk(), float32(rng.Intn(8)))
		case 1:
			p.SearchColor(cols[rng.Intn(len(cols))], mk(), float32(1+rng.Intn(7)))
		case 2, 3, 4:
			p.Propagate(mk(), mk(), spec(), fn())
		case 5:
			p.And(mk(), mk(), mk(), fn())
		case 6:
			p.Or(mk(), mk(), mk(), fn())
		case 7:
			p.Not(mk(), mk(), float32(rng.Intn(8)), isa.Condition(rng.Intn(7)))
		case 8:
			p.Set(mk(), float32(rng.Intn(8)))
		case 9:
			p.ClearM(mk())
		case 10:
			p.Func(mk(), safeFns[rng.Intn(len(safeFns))], float32(rng.Intn(4)))
		case 11:
			p.CollectNode(mk())
		case 12:
			p.CollectColor(mk())
		default:
			p.Barrier()
		}
	}
	p.CollectNode(mk())
	p.Barrier()
	return p
}

// optDifferential runs one seed's program unoptimized and optimized on
// fresh lockstep machines and requires bit-identical observables.
func optDifferential(t *testing.T, seed int64, level int, preserve bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kb, rels, cols := randomKB(rng)
	p := randomOptProgram(rng, kb, rels, cols)
	clusters := 1 + rng.Intn(6)

	opt := isa.Optimize(p, isa.OptConfig{Level: level, PreserveMarkers: preserve})

	mRef := newTestMachine(t, kb, clusters)
	defer mRef.Close()
	resRef, err := mRef.Run(p)
	if err != nil {
		t.Fatalf("seed %d: reference run: %v", seed, err)
	}
	ref := captureFull(mRef, kb, resRef)

	mOpt := newTestMachine(t, kb, clusters)
	defer mOpt.Close()
	resOpt, err := mOpt.RunOptimized(t.Context(), opt.Program)
	if err == ErrOptAmbiguous {
		// The strict-mode backstop fired: the caller would fall back to
		// the unoptimized program, so there is nothing to compare.
		return
	}
	if err != nil {
		t.Fatalf("seed %d: optimized run: %v", seed, err)
	}
	resOpt.RemapInstrs(opt.OrigIndex)
	got := captureFull(mOpt, kb, resOpt)

	label := fmt.Sprintf("seed %d level %d preserve %v (%d->%d instrs)",
		seed, level, preserve, p.Len(), opt.Program.Len())
	if preserve {
		diffFull(t, label, ref, got)
	} else {
		// Serving profile: dead final marker state is free game, but
		// collections stay bit-identical.
		refC := fullState{markers: map[string]string{}, collections: ref.collections}
		gotC := fullState{markers: map[string]string{}, collections: got.collections}
		diffFull(t, label, refC, gotC)
	}
	// No virtual-time assertion here: the optimizer never adds
	// instructions or window flushes, but any instruction removed or
	// moved shifts issue slots and flush points, which perturbs
	// per-cluster clock alignment by microseconds in either direction
	// on programs with nothing to overlap. The deterministic chain
	// tests (TestOptimizedChainIdenticalAndFaster here,
	// TestEngineOptimizedBitIdenticalAndFaster in the engine) assert
	// strict improvement on workloads with real structure to win.
}

// FuzzOptDifferential is the tape-driven bit-identity check for the
// optimizer: markers read back (value and origin registers included),
// collections, and instruction attribution must match the program as
// written at every opt level, and virtual time must never regress.
func FuzzOptDifferential(f *testing.F) {
	f.Add(int64(1), byte(0))
	f.Add(int64(42), byte(1))
	f.Add(int64(-7), byte(2))
	f.Add(int64(987654), byte(3))
	f.Add(int64(-314159), byte(5))
	f.Fuzz(func(t *testing.T, seed int64, mode byte) {
		level := isa.OptBasic + int(mode)%2 // O1 or O2
		preserve := (mode/2)%2 == 0
		optDifferential(t, seed, level, preserve)
	})
}

// TestOptDifferentialSeeded pins a deterministic sweep of the same
// property so the suite exercises the optimizer without -fuzz.
func TestOptDifferentialSeeded(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(5000 + trial)
		optDifferential(t, seed, isa.OptBasic+trial%2, trial%4 < 2)
	}
}

// chainKB builds the depth-8 chain network: `chains` disjoint chains of
// `depth` nodes linked head to tail, each head carrying its own color.
func optChainKB(t *testing.T, chains, depth int) (*semnet.KB, semnet.RelType, []semnet.Color) {
	t.Helper()
	kb := semnet.NewKB()
	next := kb.Relation("next")
	body := kb.ColorFor("body")
	heads := make([]semnet.Color, chains)
	for i := range heads {
		heads[i] = kb.ColorFor(fmt.Sprintf("head%d", i))
	}
	for c := 0; c < chains; c++ {
		var prev semnet.NodeID
		for d := 0; d < depth; d++ {
			col := body
			if d == 0 {
				col = heads[c]
			}
			id := kb.MustAddNode(fmt.Sprintf("c%dn%d", c, d), col)
			if d > 0 {
				kb.MustAddLink(prev, next, 1, id)
			}
			prev = id
		}
	}
	return kb, next, heads
}

// chainWorkload is the naive depth-8 chain program: every sub-query
// reuses one scratch plane (WAR/WAW window flush per chain as written)
// and emits a dead diagnostic propagate that serving-mode DCE removes.
func chainWorkload(next semnet.RelType, heads []semnet.Color) *isa.Program {
	p := isa.NewProgram()
	scratch := semnet.MarkerID(semnet.NumComplexMarkers) // binary
	diag := semnet.MarkerID(semnet.NumComplexMarkers + 1)
	for i, h := range heads {
		p.ClearM(scratch)
		p.SearchColor(h, scratch, 1)
		p.Propagate(scratch, semnet.MarkerID(i), rules.Path(next), semnet.FuncNop)
		p.Propagate(scratch, diag, rules.Step(next), semnet.FuncNop) // never read
	}
	for i := range heads {
		p.CollectNode(semnet.MarkerID(i))
	}
	p.Barrier()
	return p
}

// TestOptimizedChainIdenticalAndFaster is the acceptance check at
// machine level: on the depth-8 chain workload the optimized program
// returns bit-identical collections and strictly lower virtual time.
func TestOptimizedChainIdenticalAndFaster(t *testing.T) {
	kb, next, heads := optChainKB(t, 8, 8)
	p := chainWorkload(next, heads)

	opt := isa.Optimize(p, isa.OptConfig{Level: isa.OptFull})
	if !opt.Changed() {
		t.Fatal("chain workload must optimize")
	}
	if opt.InstrsEliminated < len(heads) {
		t.Fatalf("expected the %d diagnostic propagates dead, eliminated %d",
			len(heads), opt.InstrsEliminated)
	}

	mRef := newTestMachine(t, kb, 4)
	defer mRef.Close()
	resRef, err := mRef.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	mOpt := newTestMachine(t, kb, 4)
	defer mOpt.Close()
	resOpt, err := mOpt.RunOptimized(t.Context(), opt.Program)
	if err != nil {
		t.Fatal(err)
	}
	resOpt.RemapInstrs(opt.OrigIndex)

	ref, got := captureFull(mRef, kb, resRef), captureFull(mOpt, kb, resOpt)
	refC := fullState{markers: map[string]string{}, collections: ref.collections}
	gotC := fullState{markers: map[string]string{}, collections: got.collections}
	diffFull(t, "chain collections", refC, gotC)

	if resOpt.Time >= resRef.Time {
		t.Fatalf("virtual time must strictly improve: %d -> %d", resRef.Time, resOpt.Time)
	}
	if mo, mn := meanDeg(p), meanDeg(opt.Program); mn <= mo {
		t.Fatalf("mean overlap degree must strictly increase: %0.3f -> %0.3f", mo, mn)
	}
}

// meanDeg is the mean, over the program's instructions, of how many
// immediately preceding instructions each is independent of.
func meanDeg(p *isa.Program) float64 {
	sum := 0
	for i := range p.Instrs {
		for j := i - 1; j >= 0 && isa.Independent(&p.Instrs[i], &p.Instrs[j]); j-- {
			sum++
		}
	}
	return float64(sum) / float64(len(p.Instrs))
}

// TestRunOptimizedPlainProgram: strict mode must behave exactly like
// RunContext for an unchanged program.
func TestRunOptimizedPlainProgram(t *testing.T) {
	kb, next, heads := optChainKB(t, 2, 4)
	p := chainWorkload(next, heads)
	mA := newTestMachine(t, kb, 2)
	defer mA.Close()
	resA, err := mA.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	mB := newTestMachine(t, kb, 2)
	defer mB.Close()
	resB, err := mB.RunOptimized(t.Context(), p)
	if err != nil {
		t.Fatal(err)
	}
	diffFull(t, "strict vs plain", captureFull(mA, kb, resA), captureFull(mB, kb, resB))
	if resA.Time != resB.Time {
		t.Fatalf("strict mode changed virtual time: %d vs %d", resA.Time, resB.Time)
	}
}
