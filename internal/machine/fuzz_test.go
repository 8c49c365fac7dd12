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
		{"refined", partition.Refined, false},
		{"refined+place", partition.Refined, true},
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
