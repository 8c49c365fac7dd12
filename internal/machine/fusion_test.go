package machine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// Differential testing for fused execution: a fused run must be
// bit-identical PER QUERY (markers via the rename table, demuxed
// collection rows) to running the same queries sequentially unfused —
// on both engines — unless it reports ErrFusionAmbiguous, in which
// case the caller falls back to solo dispatch and no result escapes.

// randomFusableProgram is randomProgram restricted to the fusion-
// eligible subset: no topology mutations, propagate functions strict
// on complex destinations (NOP/ADD/DEC), anything on binary ones.
// Markers draw from a small pool so pairs and triples fit the plane
// allocator.
func randomFusableProgram(rng *rand.Rand, kb *semnet.KB, rels []semnet.RelType, cols []semnet.Color) *isa.Program {
	p := isa.NewProgram()
	pool := make([]semnet.MarkerID, 0, 12)
	for i := 0; i < 8; i++ {
		pool = append(pool, semnet.MarkerID(rng.Intn(semnet.NumComplexMarkers)))
	}
	for i := 0; i < 4; i++ {
		pool = append(pool, semnet.Binary(rng.Intn(semnet.NumMarkers-semnet.NumComplexMarkers)))
	}
	mk := func() semnet.MarkerID { return pool[rng.Intn(len(pool))] }
	strictFns := []semnet.FuncCode{semnet.FuncNop, semnet.FuncAdd, semnet.FuncDec}
	anyFns := []semnet.FuncCode{semnet.FuncNop, semnet.FuncAdd, semnet.FuncMin, semnet.FuncMax, semnet.FuncDec}
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

	steps := 5 + rng.Intn(20)
	for i := 0; i < steps; i++ {
		switch rng.Intn(12) {
		case 0:
			p.SearchNode(node(), mk(), float32(rng.Intn(8)))
		case 1:
			p.SearchRelation(rel(), mk(), float32(rng.Intn(8)))
		case 2:
			p.SearchColor(cols[rng.Intn(len(cols))], mk(), float32(rng.Intn(8)))
		case 3, 4, 5:
			m2 := mk()
			fn := strictFns[rng.Intn(len(strictFns))]
			if !m2.IsComplex() {
				fn = anyFns[rng.Intn(len(anyFns))]
			}
			p.Propagate(mk(), m2, spec(), fn)
		case 6:
			p.And(mk(), mk(), mk(), strictFns[rng.Intn(len(strictFns))])
		case 7:
			p.Or(mk(), mk(), mk(), strictFns[rng.Intn(len(strictFns))])
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
	p.CollectNode(mk())
	return p
}

// newFusionMachine builds a machine over kb in the fuzz configuration.
func newFusionMachine(t testing.TB, kb *semnet.KB, det bool, clusters int) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Clusters = clusters
	cfg.NodesPerCluster = kb.NumNodes() + 32
	cfg.Deterministic = det
	cfg.MaxDepth = 32
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// queryView is one query's observable outcome: its markers (keyed by
// the query's own plane IDs) and its collection rows in program order.
type queryView struct {
	markers     map[string]string
	collections []string
}

func soloView(m *Machine, kb *semnet.KB, res *Result, p *isa.Program) queryView {
	v := queryView{markers: map[string]string{}}
	p.Markers().ForEach(func(mk semnet.MarkerID) {
		for id := 0; id < kb.NumNodes(); id++ {
			if m.TestMarker(semnet.NodeID(id), mk) {
				v.markers[fmt.Sprintf("%d/%d", id, mk)] = fmt.Sprintf("%v@%d",
					m.MarkerValue(semnet.NodeID(id), mk), markerOrigin(m, semnet.NodeID(id), mk))
			}
		}
	})
	for _, c := range res.Collections {
		for _, it := range c.Items {
			v.collections = append(v.collections, fmt.Sprintf("%d:%+v", c.Instr, it))
		}
	}
	return v
}

// fusedViews reads each query's outcome back out of a fused run,
// translating planes through the rename table and demuxing collections
// through InstrOf.
func fusedViews(m *Machine, kb *semnet.KB, f *isa.Fused, res *Result, progs []*isa.Program) []queryView {
	views := make([]queryView, len(progs))
	for q, p := range progs {
		views[q].markers = map[string]string{}
		p.Markers().ForEach(func(mk semnet.MarkerID) {
			fm := f.MarkerOf(q, mk)
			for id := 0; id < kb.NumNodes(); id++ {
				if m.TestMarker(semnet.NodeID(id), fm) {
					views[q].markers[fmt.Sprintf("%d/%d", id, mk)] = fmt.Sprintf("%v@%d",
						m.MarkerValue(semnet.NodeID(id), fm), markerOrigin(m, semnet.NodeID(id), fm))
				}
			}
		})
	}
	for _, c := range res.Collections {
		o := f.InstrOf(c.Instr)
		for _, it := range c.Items {
			views[o.Query].collections = append(views[o.Query].collections,
				fmt.Sprintf("%d:%+v", o.Index, it))
		}
	}
	return views
}

func viewsEqual(a, b queryView) bool {
	if len(a.markers) != len(b.markers) || len(a.collections) != len(b.collections) {
		return false
	}
	for k, v := range a.markers {
		if b.markers[k] != v {
			return false
		}
	}
	for i := range a.collections {
		if a.collections[i] != b.collections[i] {
			return false
		}
	}
	return true
}

// concurrentNoise reports whether a solo-vs-fused mismatch on the
// concurrent engine is schedule noise rather than a fusion defect. The
// concurrent engine makes no determinism promise: delivery sets are
// schedule-dependent (e.g. near the MaxDepth cutoff, or value races
// between equal-length waves), so outcomes legitimately vary run to
// run — solo AND fused alike. The differential therefore only fails
// when the solo view is stable across re-runs and the fused run
// diverges from it consistently; anything that wobbles on re-execution
// indicts the schedule, not fusion. (The lockstep engine's comparison
// has no such escape: there, bit-identity is unconditional.)
func concurrentNoise(t testing.TB, kb *semnet.KB, clusters int, p *isa.Program,
	f *isa.Fused, q int, progs []*isa.Program, view queryView) bool {
	for i := 0; i < 4; i++ {
		sm := newFusionMachine(t, kb, false, clusters)
		res, err := sm.Run(p)
		if err != nil {
			return true
		}
		if !viewsEqual(view, soloView(sm, kb, res, p)) {
			return true // solo itself is schedule-dependent
		}
	}
	for i := 0; i < 4; i++ {
		fm := newFusionMachine(t, kb, false, clusters)
		res, err := fm.RunFused(context.Background(), f)
		if err != nil {
			return true // incl. a late ambiguity detection: solo fallback
		}
		if viewsEqual(view, fusedViews(fm, kb, f, res, progs)[q]) {
			return true // fused reproduces solo on another schedule
		}
	}
	return false
}

func diffViews(t *testing.T, trial, q int, solo, fused queryView, what string) {
	t.Helper()
	if len(solo.markers) != len(fused.markers) {
		t.Fatalf("trial %d query %d (%s): %d vs %d set markers", trial, q, what, len(solo.markers), len(fused.markers))
	}
	for k, v := range solo.markers {
		if fused.markers[k] != v {
			t.Fatalf("trial %d query %d (%s): marker %s: solo %s fused %s", trial, q, what, k, v, fused.markers[k])
		}
	}
	if len(solo.collections) != len(fused.collections) {
		t.Fatalf("trial %d query %d (%s): %d vs %d collection rows", trial, q, what,
			len(solo.collections), len(fused.collections))
	}
	for i := range solo.collections {
		if solo.collections[i] != fused.collections[i] {
			t.Fatalf("trial %d query %d (%s): row %d: solo %s fused %s", trial, q, what,
				i, solo.collections[i], fused.collections[i])
		}
	}
}

func TestFusedBitIdenticalToSolo(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	compared := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		kb, rels, cols := randomKB(rng)
		n := 2 + rng.Intn(3) // pairs, triples, quads
		progs := make([]*isa.Program, n)
		for i := range progs {
			progs[i] = randomFusableProgram(rng, kb, rels, cols)
		}
		f, err := isa.Fuse(progs)
		if err != nil {
			t.Fatalf("trial %d: fuse: %v", trial, err)
		}
		clusters := 1 + rng.Intn(8)
		for _, det := range []bool{true, false} {
			// Solo reference: each query on a fresh machine.
			solos := make([]queryView, n)
			for q, p := range progs {
				sm := newFusionMachine(t, kb, det, clusters)
				res, err := sm.Run(p)
				if err != nil {
					t.Fatalf("trial %d query %d solo: %v", trial, q, err)
				}
				solos[q] = soloView(sm, kb, res, p)
			}
			fm := newFusionMachine(t, kb, det, clusters)
			res, err := fm.RunFused(context.Background(), f)
			if errors.Is(err, ErrFusionAmbiguous) {
				continue // caller falls back to solo; nothing escapes
			}
			if err != nil {
				t.Fatalf("trial %d fused (det=%v): %v", trial, det, err)
			}
			views := fusedViews(fm, kb, f, res, progs)
			for q := range progs {
				if !det && !viewsEqual(solos[q], views[q]) &&
					concurrentNoise(t, kb, clusters, progs[q], f, q, progs, solos[q]) {
					continue // schedule-dependent input, not fusion's doing
				}
				diffViews(t, trial, q, solos[q], views[q], fmt.Sprintf("det=%v", det))
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("every trial was origin-ambiguous; differential comparison is vacuous")
	}
	t.Logf("compared %d fused runs bit-exact", compared)
}

// FuzzFusedDifferential is the open-ended form of
// TestFusedBitIdenticalToSolo: any (seed, width) input derives a random
// knowledge base and 2-4 random fusable queries. On the deterministic
// lockstep engine the fused run must be bit-identical — markers,
// values, origins, collections — to each query's solo run; that arm
// exercises every fusion transform (plane renaming, merged rule
// tables, demux) with no schedule to hide behind. The concurrent
// engine makes no reproducibility promise (delivery order
// near the MaxDepth cutoff legitimately varies outcomes, and fused
// load shifts the schedule systematically, so solo-vs-fused re-run
// voting cannot separate noise from defect), so its arm asserts what
// IS contractual: the fused run completes under -race and demuxes each
// collection to the owning query's original instruction. Value-level
// concurrent coverage lives in TestFusedBitIdenticalToSolo's fixed
// tame seeds behind the concurrentNoise guard. Origin-ambiguous inputs
// are skipped: the machine refuses them at runtime (ErrFusionAmbiguous)
// and the engine serves them solo, so nothing escapes unfused.
func FuzzFusedDifferential(fz *testing.F) {
	fz.Add(int64(7001), uint8(2))
	fz.Add(int64(7002), uint8(3))
	fz.Add(int64(7003), uint8(4))
	fz.Add(int64(-90210), uint8(0))
	fz.Fuzz(func(t *testing.T, seed int64, width uint8) {
		rng := rand.New(rand.NewSource(seed))
		kb, rels, cols := randomKB(rng)
		n := 2 + int(width%3)
		progs := make([]*isa.Program, n)
		for i := range progs {
			progs[i] = randomFusableProgram(rng, kb, rels, cols)
		}
		f, err := isa.Fuse(progs)
		if err != nil {
			t.Skip("not fusable:", err) // e.g. merged rule table overflow
		}
		clusters := 1 + rng.Intn(8)

		// Lockstep: hard bit-identity, no escape hatch.
		solos := make([]queryView, n)
		for q, p := range progs {
			sm := newFusionMachine(t, kb, true, clusters)
			res, err := sm.Run(p)
			if err != nil {
				t.Fatalf("query %d solo: %v", q, err)
			}
			solos[q] = soloView(sm, kb, res, p)
		}
		fm := newFusionMachine(t, kb, true, clusters)
		res, err := fm.RunFused(context.Background(), f)
		if err == nil {
			views := fusedViews(fm, kb, f, res, progs)
			for q := range progs {
				diffViews(t, 0, q, solos[q], views[q], "det=true")
			}
		} else if !errors.Is(err, ErrFusionAmbiguous) {
			t.Fatalf("fused (det=true): %v", err)
		}

		// Concurrent: structural contract only (see doc comment).
		cm := newFusionMachine(t, kb, false, clusters)
		cres, err := cm.RunFused(context.Background(), f)
		if errors.Is(err, ErrFusionAmbiguous) {
			return
		}
		if err != nil {
			t.Fatalf("fused (det=false): %v", err)
		}
		for q, part := range cres.Demux(f) {
			want := 0
			for i := range progs[q].Instrs {
				switch progs[q].Instrs[i].Op {
				case isa.OpCollectNode, isa.OpCollectRelation, isa.OpCollectColor:
					want++
				}
			}
			if len(part.Collections) != want {
				t.Fatalf("det=false query %d: %d collections demuxed, program has %d collect ops",
					q, len(part.Collections), want)
			}
			for _, col := range part.Collections {
				if col.Instr < 0 || col.Instr >= progs[q].Len() ||
					progs[q].Instrs[col.Instr].Op != col.Op {
					t.Fatalf("det=false query %d: collection demuxed to instr %d op %v, program op mismatch",
						q, col.Instr, col.Op)
				}
			}
		}
	})
}

// TestFusedWideGroups is the scalar statement of the clone workload the
// deleted plane-vectorized path was built for: K clone queries (same
// shape, different seed values) fused must produce per-query results
// identical to solo runs, and do exactly the solo runs' work (fused
// PropSteps = Σ solo PropSteps).
func TestFusedWideGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kb, rels, cols := randomKB(rng)
	const K = 4
	progs := make([]*isa.Program, K)
	for q := 0; q < K; q++ {
		p := isa.NewProgram()
		p.SearchColor(cols[0], 0, float32(q))
		p.Propagate(0, 1, rules.Path(rels[0]), semnet.FuncAdd)
		p.Barrier()
		p.CollectNode(1)
		progs[q] = p
	}
	f, err := isa.Fuse(progs)
	if err != nil {
		t.Fatal(err)
	}

	var soloSteps int64
	solos := make([]queryView, K)
	for q, p := range progs {
		sm := newFusionMachine(t, kb, true, 4)
		res, err := sm.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		soloSteps += res.Profile.PropSteps
		solos[q] = soloView(sm, kb, res, p)
	}

	fm := newFusionMachine(t, kb, true, 4)
	res, err := fm.RunFused(context.Background(), f)
	if errors.Is(err, ErrFusionAmbiguous) {
		t.Skip("workload produced an origin tie; covered by fuzz")
	}
	if err != nil {
		t.Fatal(err)
	}
	views := fusedViews(fm, kb, f, res, progs)
	for q := range progs {
		diffViews(t, 0, q, solos[q], views[q], "clones")
	}
	if res.Profile.PropSteps != soloSteps {
		t.Fatalf("fused PropSteps %d, want the solo sum %d", res.Profile.PropSteps, soloSteps)
	}

	// Repeat runs of the same fused program are bit-identical,
	// including virtual time.
	fm2 := newFusionMachine(t, kb, true, 4)
	res2, err := fm2.RunFused(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Time != res.Time {
		t.Fatalf("fused virtual time not reproducible: %d vs %d", res.Time, res2.Time)
	}
	views2 := fusedViews(fm2, kb, f, res2, progs)
	for q := range progs {
		diffViews(t, 1, q, views[q], views2[q], "clones repeat")
	}
}

// TestFusedAmbiguousTie: two equal-value sources reaching one node over
// equal-weight links give distinct-origin final contributions that tie;
// the fused run must refuse (ErrFusionAmbiguous) rather than guess an
// origin.
func TestFusedAmbiguousTie(t *testing.T) {
	kb := semnet.NewKB()
	r := kb.Relation("r")
	c := kb.ColorFor("seed")
	a := kb.MustAddNode("a", c)
	b := kb.MustAddNode("b", c)
	mid := kb.MustAddNode("mid", kb.ColorFor("other"))
	kb.MustAddLink(a, r, 1, mid)
	kb.MustAddLink(b, r, 1, mid)

	mkProg := func(extra float32) *isa.Program {
		p := isa.NewProgram()
		p.SearchColor(c, 0, extra)
		p.Propagate(0, 1, rules.Path(r), semnet.FuncAdd)
		p.Barrier()
		p.CollectNode(1)
		return p
	}
	f, err := isa.Fuse([]*isa.Program{mkProg(0), mkProg(0)})
	if err != nil {
		t.Fatal(err)
	}
	m := newFusionMachine(t, kb, true, 2)
	if _, err := m.RunFused(context.Background(), f); !errors.Is(err, ErrFusionAmbiguous) {
		t.Fatalf("want ErrFusionAmbiguous, got %v", err)
	}
}

// TestMaskedClearCoversRuns: after any sequence of runs, ClearMarkers
// must leave no marker set anywhere (the dirty-plane tracking must not
// miss a written plane).
func TestMaskedClearCoversRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kb, rels, cols := randomKB(rng)
	m := newFusionMachine(t, kb, true, 4)
	for i := 0; i < 5; i++ {
		p := randomFusableProgram(rng, kb, rels, cols)
		if _, err := m.Run(p); err != nil {
			t.Fatal(err)
		}
		m.ClearMarkers()
		for mk := 0; mk < semnet.NumMarkers; mk++ {
			if n := m.MarkerCount(semnet.MarkerID(mk)); n != 0 {
				t.Fatalf("run %d: marker %d still set at %d nodes after ClearMarkers", i, mk, n)
			}
		}
	}
}
