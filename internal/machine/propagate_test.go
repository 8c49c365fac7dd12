package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/partition"
	"snap1/internal/perfmon"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// diamondKB: a -r-> b -r-> d, a -r-> c -r-> d with asymmetric weights, so
// two paths of different cost reach d.
func diamondKB(t *testing.T) (*semnet.KB, [4]semnet.NodeID, semnet.RelType) {
	t.Helper()
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("r")
	a := kb.MustAddNode("a", col)
	b := kb.MustAddNode("b", col)
	c := kb.MustAddNode("c", col)
	d := kb.MustAddNode("d", col)
	kb.MustAddLink(a, rel, 1, b)
	kb.MustAddLink(a, rel, 10, c)
	kb.MustAddLink(b, rel, 10, d)
	kb.MustAddLink(c, rel, 1, d)
	return kb, [4]semnet.NodeID{a, b, c, d}, rel
}

func TestAddCostsConvergeToCheapestPath(t *testing.T) {
	for _, det := range []bool{true, false} {
		kb, n, rel := diamondKB(t)
		cfg := DefaultConfig()
		cfg.Clusters = 2
		cfg.NodesPerCluster = 4
		cfg.Deterministic = det
		cfg.Partition = partition.RoundRobin
		m, _ := New(cfg)
		if err := m.LoadKB(kb); err != nil {
			t.Fatal(err)
		}
		p := isa.NewProgram()
		src, dst := semnet.MarkerID(0), semnet.MarkerID(1)
		p.SearchNode(n[0], src, 0)
		p.Propagate(src, dst, rules.Path(rel), semnet.FuncAdd)
		p.Barrier()
		if _, err := m.Run(p); err != nil {
			t.Fatal(err)
		}
		// Both paths cost 11; the merge keeps the minimum regardless of
		// arrival order (Bellman-Ford style settling).
		if got := m.MarkerValue(n[3], dst); got != 11 {
			t.Fatalf("det=%v: d's cost = %v, want 11", det, got)
		}
		if got := m.MarkerValue(n[1], dst); got != 1 {
			t.Fatalf("det=%v: b's cost = %v, want 1", det, got)
		}
	}
}

func TestMaxDepthSafetyNet(t *testing.T) {
	// A 2-cycle with FuncNop would loop forever without the visit-once
	// guard; with FuncAdd values strictly grow so the merge guard also
	// stops it — and MaxDepth is the final backstop. Exercise all three.
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("r")
	a := kb.MustAddNode("a", col)
	b := kb.MustAddNode("b", col)
	kb.MustAddLink(a, rel, 1, b)
	kb.MustAddLink(b, rel, 1, a)

	for _, fn := range []semnet.FuncCode{semnet.FuncNop, semnet.FuncAdd, semnet.FuncMax} {
		cfg := DefaultConfig()
		cfg.Clusters = 1
		cfg.NodesPerCluster = 4
		cfg.MaxDepth = 16
		m, _ := New(cfg)
		if err := m.LoadKB(kb); err != nil {
			t.Fatal(err)
		}
		p := isa.NewProgram()
		p.SearchNode(a, 0, 0)
		p.Propagate(0, 1, rules.Path(rel), fn)
		p.Barrier()
		if _, err := m.Run(p); err != nil {
			t.Fatalf("fn=%v: %v", fn, err)
		}
		if !m.TestMarker(b, 1) || !m.TestMarker(a, 1) {
			t.Fatalf("fn=%v: cycle nodes not marked", fn)
		}
	}
}

func TestBetaOverlapWindow(t *testing.T) {
	// Two independent propagations must share one barrier; a dependent
	// pair must use two.
	kb, n, rel := diamondKB(t)
	build := func(m2 semnet.MarkerID) *isa.Program {
		p := isa.NewProgram()
		p.SearchNode(n[0], 0, 0)
		p.SearchNode(n[1], 4, 0)
		p.Propagate(0, 1, rules.Path(rel), semnet.FuncNop)
		p.Propagate(4, m2, rules.Path(rel), semnet.FuncNop)
		p.Barrier()
		return p
	}
	cfg := DefaultConfig()
	cfg.Clusters = 1
	cfg.NodesPerCluster = 8
	m, _ := New(cfg)
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(build(5)) // disjoint markers: one overlap window
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile.Barriers) != 1 {
		t.Fatalf("independent pair used %d barriers, want 1", len(res.Profile.Barriers))
	}
	if res.Profile.PhaseBetas[0] != 2 {
		t.Fatalf("overlap degree = %d, want 2", res.Profile.PhaseBetas[0])
	}
	m.ClearMarkers()
	res, err = m.Run(build(0)) // second writes first's source: dependent
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile.Barriers) != 2 {
		t.Fatalf("dependent pair used %d barriers, want 2", len(res.Profile.Barriers))
	}
}

func TestInstrQueueCapBoundsWindow(t *testing.T) {
	kb, n, rel := diamondKB(t)
	cfg := DefaultConfig()
	cfg.Clusters = 1
	cfg.NodesPerCluster = 8
	cfg.InstrQueueCap = 2
	m, _ := New(cfg)
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.SearchNode(n[0], 0, 0)
	for i := 0; i < 6; i += 2 {
		p.Propagate(0, semnet.MarkerID(i+1), rules.Path(rel), semnet.FuncNop)
		// note: all read marker 0, mutually independent writes
		p.Propagate(0, semnet.MarkerID(i+2), rules.Path(rel), semnet.FuncNop)
	}
	p.Barrier()
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range res.Profile.PhaseBetas {
		if beta > 2 {
			t.Fatalf("window grew past InstrQueueCap: β=%d", beta)
		}
	}
}

func TestOriginBinding(t *testing.T) {
	kb, n, rel := diamondKB(t)
	cfg := DefaultConfig()
	cfg.Clusters = 2
	cfg.NodesPerCluster = 4
	m, _ := New(cfg)
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.SearchNode(n[0], 0, 0)
	p.Propagate(0, 1, rules.Path(rel), semnet.FuncAdd)
	p.CollectNode(1)
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Collected(0) {
		if it.Origin != n[0] {
			t.Fatalf("node %d origin = %d, want the first origin address %d", it.Node, it.Origin, n[0])
		}
	}
}

func TestPerfmonIntegration(t *testing.T) {
	kb, n, rel := diamondKB(t)
	mon := perfmon.NewCollector(1024)
	cfg := referenceConfig()
	cfg.Clusters = 2
	cfg.NodesPerCluster = 4
	cfg.Partition = partition.RoundRobin
	cfg.Monitor = mon
	m, _ := New(cfg)
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.SearchNode(n[0], 0, 0)
	p.Propagate(0, 1, rules.Path(rel), semnet.FuncAdd)
	p.CollectNode(1)
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	recs := mon.Drain()
	kinds := make(map[perfmon.EventCode]int)
	for _, r := range recs {
		kinds[r.Code]++
	}
	if kinds[perfmon.EvMsgSend] == 0 || kinds[perfmon.EvMsgRecv] == 0 {
		t.Errorf("missing message events: %v", kinds)
	}
	if kinds[perfmon.EvBarrierDone] == 0 || kinds[perfmon.EvCollect] == 0 {
		t.Errorf("missing phase events: %v", kinds)
	}
}

// Random graphs: both engines must agree on final marker state for every
// propagation function, partition, and cluster count — with room to
// spare in every cluster, and in the tight window40 configuration.
func TestEnginesAgreeOnRandomGraphs(t *testing.T) {
	for _, tc := range windowConfigs {
		t.Run(tc.name, func(t *testing.T) { enginesAgreeOnRandomGraphs(t, tc.tight) })
	}
}

func enginesAgreeOnRandomGraphs(t *testing.T, tight bool) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		kb := semnet.NewKB()
		col := kb.ColorFor("c")
		rel := kb.Relation("r")
		n := 8 + rng.Intn(60)
		for i := 0; i < n; i++ {
			kb.MustAddNode(fmt.Sprintf("n%d", i), col)
		}
		links := n * 2
		for i := 0; i < links; i++ {
			kb.MustAddLink(semnet.NodeID(rng.Intn(n)), rel,
				float32(1+rng.Intn(8)), semnet.NodeID(rng.Intn(n)))
		}
		fn := []semnet.FuncCode{semnet.FuncNop, semnet.FuncAdd, semnet.FuncMin, semnet.FuncMax}[rng.Intn(4)]
		src := semnet.NodeID(rng.Intn(n))
		cfg := DefaultConfig()
		cfg.Clusters = 1 + rng.Intn(7)
		cfg.NodesPerCluster = n + 64
		cfg.Partition = partition.RoundRobin
		if tight {
			cfg = tightConfig(kb, cfg.Clusters)
		}

		type state map[semnet.NodeID]float32
		runOne := func(det bool) state {
			cfg.Deterministic = det
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if err := m.LoadKB(kb); err != nil {
				t.Fatal(err)
			}
			p := isa.NewProgram()
			p.SearchNode(src, 0, 0)
			p.Propagate(0, 1, rules.Path(rel), fn)
			p.Barrier()
			if _, err := m.Run(p); err != nil {
				t.Fatal(err)
			}
			st := make(state)
			for i := 0; i < kb.NumNodes(); i++ {
				id := semnet.NodeID(i)
				if m.TestMarker(id, 1) {
					st[id] = m.MarkerValue(id, 1)
				}
			}
			return st
		}
		lock, conc := runOne(true), runOne(false)
		if len(lock) != len(conc) {
			t.Fatalf("trial %d (fn=%v, clusters=%d): reach sets differ: %d vs %d",
				trial, fn, cfg.Clusters, len(lock), len(conc))
		}
		for id, v := range lock {
			if conc[id] != v {
				t.Fatalf("trial %d (fn=%v): node %d: lockstep %v, concurrent %v",
					trial, fn, id, v, conc[id])
			}
		}
	}
}

// Small mailboxes force the backpressure path; the system must not
// deadlock even with heavy all-to-all traffic.
func TestBackpressureNoDeadlock(t *testing.T) {
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("r")
	const n = 64
	for i := 0; i < n; i++ {
		kb.MustAddNode(fmt.Sprintf("n%d", i), col)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			kb.MustAddLink(semnet.NodeID(i), rel, 1, semnet.NodeID(rng.Intn(n)))
		}
	}
	cfg := referenceConfig()
	cfg.Clusters = 8
	cfg.NodesPerCluster = 16
	cfg.MailboxCap = 1 // worst case
	cfg.Partition = partition.RoundRobin
	m, _ := New(cfg)
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.Set(0, 0) // every node is a source
	p.Propagate(0, semnet.Binary(0), rules.Path(rel), semnet.FuncNop)
	p.Barrier()
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := m.MarkerCount(semnet.Binary(0)); got == 0 {
		t.Fatal("nothing propagated")
	}
}

// The visit table stamps entries with a 32-bit phase epoch. An entry
// written in phase 1 and never touched again must not read as live when
// the count comes round to 1 again 2^32 phases later: the wrap wipes the
// slots and restarts above the zero they then hold.
func TestVisitTableEpochWrap(t *testing.T) {
	var v visitTable
	key := visitKey(3, 1, 2, 5)
	v.reset() // phase 1
	e, seen := v.slot(key)
	if seen {
		t.Fatal("a fresh table has seen the key")
	}
	e.val = 7
	if e, seen := v.slot(key); !seen || e.val != 7 {
		t.Fatal("an entry written this phase is not live")
	}
	v.epoch = ^uint32(0) // the last phase before the wrap
	if _, seen := v.slot(key); seen {
		t.Fatal("phase 1's entry is live in the last phase")
	}
	v.reset()
	if v.epoch == 0 {
		t.Fatal("epoch 0 after the wrap: every wiped entry would read as live")
	}
	if e, seen := v.slot(key); seen {
		t.Fatalf("after the wrap the epoch is %d again and phase 1's entry (value %v) reads as live", v.epoch, e.val)
	}
}

// Growing the table keeps every entry of the phase, and no two keys share
// an entry, whatever order they arrive in.
func TestVisitTableGrows(t *testing.T) {
	var v visitTable
	v.reset()
	const n = 1000
	for i := range n {
		e, seen := v.slot(visitKey(semnet.MarkerID(i%7), rules.Token(i%3), rules.State(i%5), int32(i)))
		if seen {
			t.Fatalf("key %d seen before it was stamped", i)
		}
		e.val = float32(i)
	}
	if len(v.slots) < 2*n {
		t.Errorf("%d entries in %d slots: more than half full", n, len(v.slots))
	}
	for i := range n {
		e, seen := v.slot(visitKey(semnet.MarkerID(i%7), rules.Token(i%3), rules.State(i%5), int32(i)))
		if !seen || e.val != float32(i) {
			t.Fatalf("key %d: seen %v, value %v after growth", i, seen, e.val)
		}
	}
	v.reset()
	if _, seen := v.slot(visitKey(0, 0, 0, 0)); seen {
		t.Fatal("an entry of the last phase is live after reset")
	}
}

// TestClusterLoadAccounting checks the per-cluster counters against the
// profile on both engines: the load summary is the max and mean of each
// cluster's marker-unit busy time per MU, and the critical cluster's busy
// time fits in the phases' span.
func TestClusterLoadAccounting(t *testing.T) {
	for _, det := range []bool{true, false} {
		w := kbgen.Chains(1, 63, 10, 1) // 63 a level: a chain hops clusters under round-robin
		cfg := PaperConfig()
		cfg.Deterministic = det
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadKB(w.KB); err != nil {
			t.Fatal(err)
		}
		p := isa.NewProgram()
		p.SearchColor(w.Seeds[0], 0, 0)
		p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd)
		p.Barrier()
		res, err := m.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		prof := res.Profile
		var sum, busiest timing.Time
		for _, c := range m.clusters {
			busy := c.load.muBusy / timing.Time(len(c.muFree))
			sum += busy
			busiest = max(busiest, busy)
		}
		mean := sum / timing.Time(len(m.clusters))
		if busiest <= 0 || prof.MUBusyMax != busiest || prof.MUBusyMean != mean {
			t.Errorf("det=%v: profile MU busy max %v mean %v, counters give %v and %v",
				det, prof.MUBusyMax, prof.MUBusyMean, busiest, mean)
		}
		if s := prof.MUBusySkew(); s < 1 {
			t.Errorf("det=%v: MU-busy skew %.3f below 1", det, s)
		}
		if prof.CriticalBusy <= 0 || prof.CriticalBusy > prof.CriticalSpan {
			t.Errorf("det=%v: critical busy %v over a span of %v", det, prof.CriticalBusy, prof.CriticalSpan)
		}
	}
}
