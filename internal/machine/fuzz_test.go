package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/partition"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// Randomized differential testing: arbitrary programs over arbitrary
// networks must (a) never error or hang, (b) produce identical marker
// state and collections on the lockstep and concurrent engines, and
// (c) produce identical results on repeated lockstep runs.

// randomKB builds a random network with interned relations and colors.
func randomKB(rng *rand.Rand) (*semnet.KB, []semnet.RelType, []semnet.Color) {
	kb := semnet.NewKB()
	nRels := 2 + rng.Intn(3)
	rels := make([]semnet.RelType, nRels)
	for i := range rels {
		rels[i] = kb.Relation(fmt.Sprintf("r%d", i))
	}
	nCols := 2 + rng.Intn(3)
	cols := make([]semnet.Color, nCols)
	for i := range cols {
		cols[i] = kb.ColorFor(fmt.Sprintf("col%d", i))
	}
	n := 6 + rng.Intn(50)
	for i := 0; i < n; i++ {
		kb.MustAddNode(fmt.Sprintf("n%d", i), cols[rng.Intn(nCols)])
	}
	for i := 0; i < n*3; i++ {
		kb.MustAddLink(
			semnet.NodeID(rng.Intn(n)), rels[rng.Intn(nRels)],
			float32(rng.Intn(5)), semnet.NodeID(rng.Intn(n)))
	}
	return kb, rels, cols
}

// randomProgram emits a random but valid instruction stream. Propagation
// uses order-free functions (nop/min/max are commutative-idempotent;
// add settles to min-merge) so engine comparison is exact.
func randomProgram(rng *rand.Rand, kb *semnet.KB, rels []semnet.RelType, cols []semnet.Color) *isa.Program {
	p := isa.NewProgram()
	mk := func() semnet.MarkerID { return semnet.MarkerID(rng.Intn(semnet.NumMarkers)) }
	fns := []semnet.FuncCode{semnet.FuncNop, semnet.FuncAdd, semnet.FuncMin, semnet.FuncMax}
	fn := func() semnet.FuncCode { return fns[rng.Intn(len(fns))] }
	rel := func() semnet.RelType { return rels[rng.Intn(len(rels))] }
	spec := func() rules.Spec {
		switch rng.Intn(5) {
		case 0:
			return rules.Step(rel())
		case 1:
			return rules.Path(rel())
		case 2:
			return rules.Spread(rel(), rel())
		case 3:
			return rules.Seq(rel(), rel())
		default:
			return rules.Comb(rel(), rel())
		}
	}
	node := func() semnet.NodeID { return semnet.NodeID(rng.Intn(kb.NumNodes())) }

	steps := 5 + rng.Intn(25)
	for i := 0; i < steps; i++ {
		switch rng.Intn(12) {
		case 0:
			p.SearchNode(node(), mk(), float32(rng.Intn(8)))
		case 1:
			p.SearchRelation(rel(), mk(), float32(rng.Intn(8)))
		case 2:
			p.SearchColor(cols[rng.Intn(len(cols))], mk(), float32(rng.Intn(8)))
		case 3, 4, 5:
			p.Propagate(mk(), mk(), spec(), fn())
		case 6:
			p.And(mk(), mk(), mk(), fn())
		case 7:
			p.Or(mk(), mk(), mk(), fn())
		case 8:
			p.Not(mk(), mk(), float32(rng.Intn(8)), isa.Condition(rng.Intn(7)))
		case 9:
			p.Set(mk(), float32(rng.Intn(8)))
		case 10:
			p.ClearM(mk())
		default:
			p.Barrier()
		}
	}
	p.CollectNode(semnet.MarkerID(rng.Intn(semnet.NumMarkers)))
	return p
}

type machineState struct {
	markers     map[string]float32
	collections []string
}

func runProgram(t *testing.T, kb *semnet.KB, p *isa.Program, det bool, clusters int, seed int64) machineState {
	t.Helper()
	return runProgramPartitioned(t, kb, p, det, clusters, seed, partition.RoundRobin, false)
}

func runProgramPartitioned(t *testing.T, kb *semnet.KB, p *isa.Program, det bool, clusters int, seed int64, strat partition.Func, place bool) machineState {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Clusters = clusters
	cfg.NodesPerCluster = kb.NumNodes() + 32
	cfg.Partition = strat
	cfg.Placement = place
	return runProgramOn(t, kb, p, det, seed, cfg)
}

// window40 is the NodesPerCluster of the tight configuration the engine
// differentials also run in: a status window of one host word, so eight
// clusters' windows of a plane share a cache line and a kernel that
// wrote a neighbour's word would show — as a wrong bit on either engine,
// as a race on the concurrent one.
const window40 = 40

// windowConfigs names the two configurations those differentials run in.
var windowConfigs = []struct {
	name  string
	tight bool
}{{"roomy", false}, {"window40", true}}

// tightConfig is a round-robin machine of window40-node clusters, at
// least the given number of them and enough to hold kb.
func tightConfig(kb *semnet.KB, clusters int) Config {
	kb.Preprocess()
	cfg := DefaultConfig()
	cfg.Clusters = max(clusters, (kb.NumNodes()+window40-1)/window40)
	cfg.NodesPerCluster = window40
	cfg.Partition = partition.RoundRobin
	return cfg
}

func runProgramOn(t *testing.T, kb *semnet.KB, p *isa.Program, det bool, seed int64, cfg Config) machineState {
	t.Helper()
	cfg.Deterministic = det
	cfg.Seed = seed
	cfg.MaxDepth = 32
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(p)
	if err != nil {
		t.Fatalf("det=%v: %v", det, err)
	}
	// The differentials are worth nothing if both sides ran one engine:
	// only the concurrent engine puts messages on the live network, every
	// one the barrier counted; the lockstep engine delivers them itself.
	want := res.Profile.PropMessages
	if det {
		want = 0
	}
	if sent, _, _ := m.net.Stats(); sent != want {
		t.Fatalf("det=%v, %d inter-cluster messages: %d injected on the live network, want %d",
			det, res.Profile.PropMessages, sent, want)
	}
	st := machineState{markers: make(map[string]float32)}
	for id := 0; id < kb.NumNodes(); id++ {
		for mk := 0; mk < semnet.NumMarkers; mk++ {
			if m.TestMarker(semnet.NodeID(id), semnet.MarkerID(mk)) {
				key := fmt.Sprintf("%d/%d", id, mk)
				st.markers[key] = m.MarkerValue(semnet.NodeID(id), semnet.MarkerID(mk))
			}
		}
	}
	for _, c := range res.Collections {
		for _, it := range c.Items {
			st.collections = append(st.collections,
				fmt.Sprintf("%d:%d=%v", c.Instr, it.Node, it.Value))
		}
	}
	return st
}

func diffStates(t *testing.T, trial int, a, b machineState, what string) {
	t.Helper()
	if len(a.markers) != len(b.markers) {
		t.Fatalf("trial %d (%s): %d vs %d set markers", trial, what, len(a.markers), len(b.markers))
	}
	for k, v := range a.markers {
		if b.markers[k] != v {
			t.Fatalf("trial %d (%s): marker %s: %v vs %v", trial, what, k, v, b.markers[k])
		}
	}
	if len(a.collections) != len(b.collections) {
		t.Fatalf("trial %d (%s): collection sizes differ", trial, what)
	}
	for i := range a.collections {
		if a.collections[i] != b.collections[i] {
			t.Fatalf("trial %d (%s): collection row %d: %s vs %s",
				trial, what, i, a.collections[i], b.collections[i])
		}
	}
}

func TestRandomProgramsEngineEquivalence(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for _, tc := range windowConfigs {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(1000 + trial)))
				kb, rels, cols := randomKB(rng)
				p := randomProgram(rng, kb, rels, cols)
				clusters := 1 + rng.Intn(8)
				run := func(det bool, clusters int, seed int64) machineState {
					if tc.tight {
						return runProgramOn(t, kb, p, det, seed, tightConfig(kb, clusters))
					}
					return runProgram(t, kb, p, det, clusters, seed)
				}

				lock := run(true, clusters, 1)
				conc := run(false, clusters, 1)
				diffStates(t, trial, lock, conc, "lockstep vs concurrent")

				// Lockstep re-runs reproduce exactly.
				lock2 := run(true, clusters, 2)
				diffStates(t, trial, lock, lock2, "lockstep repeat")

				// Cluster count must not change functional results.
				other := run(true, clusters%8+1, 1)
				diffStates(t, trial, lock, other, "cluster-count invariance")
			}
		})
	}
}

// randomPropagateProgram emits a propagation-dominated stream: long runs of
// back-to-back PROPAGATEs with only occasional barriers, so the overlap
// window stays wide and the mailbox-drain / flush paths of the concurrent
// engine see sustained multi-instruction load.
func randomPropagateProgram(rng *rand.Rand, kb *semnet.KB, rels []semnet.RelType, cols []semnet.Color) *isa.Program {
	p := isa.NewProgram()
	mk := func() semnet.MarkerID { return semnet.MarkerID(rng.Intn(semnet.NumMarkers)) }
	fns := []semnet.FuncCode{semnet.FuncNop, semnet.FuncAdd, semnet.FuncMin, semnet.FuncMax}
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
	for i := 0; i < 2+rng.Intn(3); i++ {
		p.SearchColor(cols[rng.Intn(len(cols))], mk(), float32(rng.Intn(8)))
	}
	steps := 20 + rng.Intn(20)
	for i := 0; i < steps; i++ {
		p.Propagate(mk(), mk(), spec(), fns[rng.Intn(len(fns))])
		if rng.Intn(8) == 0 {
			p.Barrier()
		}
	}
	p.Barrier()
	p.CollectNode(semnet.MarkerID(rng.Intn(semnet.NumMarkers)))
	return p
}

// TestRandomPropagateHeavyEquivalence is the differential check under
// sustained traffic: propagation-heavy programs must produce identical
// marker sets, marker values, and collection rows on the lockstep engine
// and on the concurrent engine under several scheduling seeds.
func TestRandomPropagateHeavyEquivalence(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		kb, rels, cols := randomKB(rng)
		p := randomPropagateProgram(rng, kb, rels, cols)
		clusters := 1 + rng.Intn(8)

		lock := runProgram(t, kb, p, true, clusters, 1)
		for seed := int64(1); seed <= 3; seed++ {
			conc := runProgram(t, kb, p, false, clusters, seed)
			diffStates(t, trial, lock, conc,
				fmt.Sprintf("lockstep vs concurrent (seed %d)", seed))
		}
	}
}

// TestRandomProgramsPartitionInvariance pins the partitioner down as a
// pure performance knob: the same program over the same network must
// produce bit-identical marker state and collections under every
// partitioning strategy, with and without the hypercube placement
// stage, on both engines. The strategy under test and the engine pair
// are drawn from the fuzz tape so successive trials cover the product.
func TestRandomProgramsPartitionInvariance(t *testing.T) {
	strategies := []struct {
		name  string
		strat partition.Func
		place bool
	}{
		{"sequential", partition.Sequential, false},
		{"round-robin", partition.RoundRobin, false},
		{"semantic", partition.Semantic, false},
		{"round-robin+place", partition.RoundRobin, true},
		{"semantic+place", partition.Semantic, true},
	}
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		kb, rels, cols := randomKB(rng)
		p := randomProgram(rng, kb, rels, cols)
		clusters := 1 + rng.Intn(8)

		// Reference: round-robin on the lockstep engine.
		ref := runProgram(t, kb, p, true, clusters, 1)

		// One tape-drawn challenger per trial keeps runtime linear
		// while covering every strategy across the trial sweep.
		s := strategies[rng.Intn(len(strategies))]
		det := rng.Intn(2) == 0
		got := runProgramPartitioned(t, kb, p, det, clusters, 1, s.strat, s.place)
		diffStates(t, trial, ref, got,
			fmt.Sprintf("round-robin vs %s (det=%v)", s.name, det))

		// Same strategy, fresh machine: per-strategy reproducibility.
		again := runProgramPartitioned(t, kb, p, true, clusters, 2, s.strat, s.place)
		ref2 := runProgramPartitioned(t, kb, p, true, clusters, 1, s.strat, s.place)
		diffStates(t, trial, ref2, again, s.name+" repeat")
	}
}

// TestLockstepVirtualTimeReproducible pins the bit-identity of the
// deterministic engine's simulated-time accounting: the same program on
// fresh machines must report the same virtual end time and step counts,
// regardless of host scheduling or arbiter seed.
func TestLockstepVirtualTimeReproducible(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		kb, rels, cols := randomKB(rng)
		p := randomPropagateProgram(rng, kb, rels, cols)

		run := func(seed int64) (timing.Time, int64, int64) {
			cfg := DefaultConfig()
			cfg.Clusters = 4
			cfg.NodesPerCluster = kb.NumNodes() + 32
			cfg.Partition = partition.RoundRobin
			cfg.Seed = seed
			cfg.MaxDepth = 32
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if err := m.LoadKB(kb); err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			return res.Time, res.Profile.PropSteps, res.Profile.PropMessages
		}

		t1, s1, m1 := run(1)
		t2, s2, m2 := run(99)
		if t1 != t2 || s1 != s2 || m1 != m2 {
			t.Fatalf("trial %d: lockstep run not reproducible: time %d vs %d, steps %d vs %d, msgs %d vs %d",
				trial, t1, t2, s1, s2, m1, m2)
		}
	}
}

// captureFull is everything a run leaves observable, one line each:
// every set marker with its value and origin registers, then every
// collection row with the instruction that collected it.
func captureFull(m *Machine, kb *semnet.KB, res *Result) []string {
	var st []string
	for id := 0; id < kb.NumNodes(); id++ {
		for mk := 0; mk < semnet.NumMarkers; mk++ {
			if n, pl := semnet.NodeID(id), semnet.MarkerID(mk); m.TestMarker(n, pl) {
				st = append(st, fmt.Sprintf("marker %d/%d: %v@%d", id, mk, m.MarkerValue(n, pl), markerOrigin(m, n, pl)))
			}
		}
	}
	for _, c := range res.Collections {
		for _, it := range c.Items {
			st = append(st, fmt.Sprintf("row of %d: %d=%v@%d/%d:%v", c.Instr, it.Node, it.Value, it.Origin, it.Color, it.Weight))
		}
	}
	return st
}

// diffFull fails at the first line where two captures differ.
func diffFull(t *testing.T, label string, a, b []string) {
	t.Helper()
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	if i < len(a) || i < len(b) {
		t.Fatalf("%s: %q vs %q", label, a[i:min(i+1, len(a))], b[i:min(i+1, len(b))])
	}
}

// randomOptProgram draws a program over a pool of six planes (four
// complex, two binary), so that one plane is written, cleared and
// redefined several times in a program. It is the generator the retired
// compile-tier optimizer was fuzzed with, kept draw for draw so that a
// seed found against it still names the same program.
func randomOptProgram(rng *rand.Rand, kb *semnet.KB, rels []semnet.RelType, cols []semnet.Color) *isa.Program {
	p := isa.NewProgram()
	planes := []semnet.MarkerID{0, 1, 2, 3, 64, 65}
	mk := func() semnet.MarkerID { return planes[rng.Intn(len(planes))] }
	safeFns := []semnet.FuncCode{semnet.FuncNop, semnet.FuncAdd, semnet.FuncDec}
	fn := func() semnet.FuncCode {
		if rng.Intn(8) == 0 {
			return semnet.FuncMin
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

// redefined returns the marker that in rewrites whole — status bits,
// value and origin registers — without reading it, if there is one:
// SET-MARKER and CLEAR-MARKER of m1, NOT-MARKER into m2, AND/OR-MARKER
// into m3 (TestStatusKernelsOverwriteRegisters pins each).
func redefined(in *isa.Instruction) (semnet.MarkerID, bool) {
	var d semnet.MarkerID
	switch in.Op {
	case isa.OpSetMarker, isa.OpClearMarker:
		d = in.M1
	case isa.OpNotMarker:
		d = in.M2
	case isa.OpAndMarker, isa.OpOrMarker:
		d = in.M3
	default:
		return 0, false
	}
	return d, !in.Reads().Contains(d)
}

// deadClear reports whether instrs[k], a CLEAR-MARKER, is followed by a
// whole redefinition of its marker with no read of it in between.
func deadClear(instrs []isa.Instruction, k int) bool {
	d := instrs[k].M1
	for i := k + 1; i < len(instrs); i++ {
		if r, ok := redefined(&instrs[i]); ok && r == d {
			return true
		}
		if instrs[i].Reads().Contains(d) {
			return false
		}
	}
	return false
}

// checkDeadClears runs every dead CLEAR of p, and one put in ahead of
// every whole redefinition in p, kept and deleted, on fresh lockstep
// machines, fails unless the two runs show the same, and returns how
// many CLEARs it checked. "Deleting" a CLEAR aims it at a plane of its
// class that the program never touches: both runs then cost the same on
// every cluster and keep one schedule, so an equal-value tie between two
// origins resolves the same way in both.
func checkDeadClears(t *testing.T, kb *semnet.KB, p *isa.Program, clusters int) int {
	t.Helper()
	run := func(instrs []isa.Instruction) []string {
		m := newFusionMachine(t, kb, true, clusters)
		res, err := m.Run(&isa.Program{Instrs: instrs, Rules: p.Rules})
		if err != nil {
			t.Fatal(err)
		}
		return captureFull(m, kb, res)
	}
	check := func(instrs []isa.Instruction, k int) {
		d, spare := instrs[k].M1, semnet.MarkerID(semnet.NumMarkers-1)
		if d.IsComplex() {
			spare = semnet.NumComplexMarkers - 1
		}
		deleted := append([]isa.Instruction(nil), instrs...)
		deleted[k].M1 = spare
		diffFull(t, fmt.Sprintf("CLEAR of %d at %d, kept vs deleted", d, k), run(instrs), run(deleted))
	}
	n := 0
	for k := range p.Instrs {
		d, ok := redefined(&p.Instrs[k])
		switch {
		case p.Instrs[k].Op == isa.OpClearMarker && deadClear(p.Instrs, k):
			check(p.Instrs, k)
		case ok && p.Instrs[k].Op != isa.OpClearMarker:
			check(append(append(p.Instrs[:k:k], isa.Instruction{Op: isa.OpClearMarker, M1: d}), p.Instrs[k:]...), k)
		default:
			continue
		}
		n++
	}
	return n
}

// TestClearAheadOfRedefinitionIsDead fences the register rule: a kernel
// that redefines a marker whole writes its registers whatever the
// marker's old bits were, so a CLEAR-MARKER of d followed by a whole
// redefinition of d, with no read of d in between, changes nothing a run
// shows — collections (rows, values, origins) and final marker state
// (status, value, origin) alike. The narrower rule, which zeroes only the
// bits a kernel newly sets, makes such a CLEAR observable and fails here.
// TestStatusKernelsOverwriteRegisters runs the same check on one program
// per kernel.
func TestClearAheadOfRedefinitionIsDead(t *testing.T) {
	// The retired optimizer fuzzer's seeds and corpus, then its seeded sweep.
	seeds := []int64{1, 42, -7, 987654, -314159, 523, 987166, -309, 467, 44}
	for s := int64(5000); s < 5024; s++ {
		seeds = append(seeds, s)
	}
	checked := 0
	for _, seed := range seeds {
		name := fmt.Sprint("seed", seed)
		if seed == 523 {
			name = "clear-ahead-of-or-into-complex" // CLEAR c2 just ahead of OR c1, b1 into c2
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			kb, rels, cols := randomKB(rng)
			p := randomOptProgram(rng, kb, rels, cols)
			n := checkDeadClears(t, kb, p, 1+rng.Intn(6))
			if seed == 523 && n == 0 {
				t.Fatal("the program has no dead CLEAR")
			}
			checked += n
		})
	}
	if checked < 2*len(seeds) {
		t.Fatalf("%d dead CLEARs over %d programs: the generator no longer exercises the rule", checked, len(seeds))
	}
}
