package machine

import (
	"runtime"
	"testing"
	"time"

	"snap1/internal/isa"
	"snap1/internal/partition"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// chainKB builds a -isa-> b -isa-> c -isa-> d with weight 1 links.
func chainKB(t *testing.T) (*semnet.KB, []semnet.NodeID, semnet.RelType) {
	t.Helper()
	kb := semnet.NewKB()
	col := kb.ColorFor("concept")
	isaRel := kb.Relation("is-a")
	names := []string{"a", "b", "c", "d"}
	ids := make([]semnet.NodeID, len(names))
	for i, n := range names {
		ids[i] = kb.MustAddNode(n, col)
	}
	for i := 0; i+1 < len(ids); i++ {
		kb.MustAddLink(ids[i], isaRel, 1, ids[i+1])
	}
	return kb, ids, isaRel
}

func newSmall(t *testing.T, det bool, part partition.Func) (*Machine, []semnet.NodeID, semnet.RelType) {
	t.Helper()
	kb, ids, rel := chainKB(t)
	cfg := DefaultConfig()
	cfg.Clusters = 4
	cfg.NodesPerCluster = 8
	cfg.Deterministic = det
	cfg.Partition = part
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatalf("LoadKB: %v", err)
	}
	return m, ids, rel
}

func TestPropagatePathBothEngines(t *testing.T) {
	for _, det := range []bool{false, true} {
		for _, part := range []partition.Func{partition.RoundRobin, partition.Sequential, partition.Semantic} {
			m, ids, rel := newSmall(t, det, part)
			p := isa.NewProgram()
			m1, m2 := semnet.MarkerID(1), semnet.MarkerID(2)
			p.SearchNode(ids[0], m1, 0)
			p.Propagate(m1, m2, rules.Path(rel), semnet.FuncAdd)
			p.CollectNode(m2)

			res, err := m.Run(p)
			if err != nil {
				t.Fatalf("det=%v Run: %v", det, err)
			}
			items := res.Collected(0)
			if len(items) != 3 {
				t.Fatalf("det=%v: collected %d items, want 3 (b,c,d): %+v", det, len(items), items)
			}
			// Path-cost accumulation: b=1, c=2, d=3.
			want := map[semnet.NodeID]float32{ids[1]: 1, ids[2]: 2, ids[3]: 3}
			for _, it := range items {
				if want[it.Node] != it.Value {
					t.Errorf("det=%v node %d: value %v, want %v", det, it.Node, it.Value, want[it.Node])
				}
				if it.Origin != ids[0] {
					t.Errorf("det=%v node %d: origin %d, want %d", det, it.Node, it.Origin, ids[0])
				}
			}
			if res.Time <= 0 {
				t.Errorf("det=%v: nonpositive simulated time %v", det, res.Time)
			}
		}
	}
}

// TestRunLeavesNoGoroutine: the reference engine starts one goroutine per
// cluster per phase and has waited for every one when Run returns, so a
// machine holds no goroutine between runs and needs no Close — after a
// run, and after a LoadKB and a second run, the process is back at the
// goroutine count it started with.
func TestRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	m, ids, rel := newSmall(t, false, partition.RoundRobin)
	p := isa.NewProgram()
	p.SearchNode(ids[0], 1, 0)
	p.Propagate(1, 2, rules.Path(rel), semnet.FuncAdd)
	run := func(after string) {
		t.Helper()
		m.ClearMarkers()
		if _, err := m.Run(p); err != nil {
			t.Fatal(err)
		}
		if sent, _, _ := m.net.Stats(); sent == 0 {
			t.Fatal("no message on the live network: the reference engine did not run")
		}
		// A cluster goroutine's last act is wg.Done, so Run can return a
		// few instructions before the runtime has retired it: poll briefly.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after %s, %d before", runtime.NumGoroutine(), after, before)
			}
		}
	}
	run("a run")
	if err := m.LoadKB(m.KB()); err != nil {
		t.Fatal(err)
	}
	run("LoadKB and a second run")
}

func TestSpreadRuleSwitchesRelation(t *testing.T) {
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	r1, r2 := kb.Relation("is-a"), kb.Relation("last")
	a := kb.MustAddNode("a", col)
	b := kb.MustAddNode("b", col)
	c := kb.MustAddNode("c", col)
	d := kb.MustAddNode("d", col)
	e := kb.MustAddNode("e", col)
	kb.MustAddLink(a, r1, 1, b) // followed (r1 chain)
	kb.MustAddLink(b, r2, 1, c) // switch to r2
	kb.MustAddLink(c, r2, 1, d) // continue on r2
	kb.MustAddLink(d, r1, 1, e) // NOT followed: after the switch only r2

	cfg := DefaultConfig()
	cfg.Clusters = 2
	cfg.NodesPerCluster = 8
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	m1, m2 := semnet.Binary(0), semnet.Binary(1)
	p.SearchNode(a, m1, 0)
	p.Propagate(m1, m2, rules.Spread(r1, r2), semnet.FuncNop)
	p.CollectNode(m2)
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Names(0)
	want := []string{"b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("collected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("collected %v, want %v", got, want)
		}
	}
	if m.TestMarker(e, m2) {
		t.Error("marker leaked past the r2 switch onto an r1 link")
	}
}

func TestEnginesAgreeOnFinalState(t *testing.T) {
	build := func(det bool) map[semnet.NodeID]float32 {
		m, ids, rel := newSmall(t, det, partition.RoundRobin)
		p := isa.NewProgram()
		m1, m2 := semnet.MarkerID(0), semnet.MarkerID(3)
		p.SearchNode(ids[0], m1, 0)
		p.Propagate(m1, m2, rules.Path(rel), semnet.FuncAdd)
		p.Barrier()
		vals := make(map[semnet.NodeID]float32)
		if _, err := m.Run(p); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if m.TestMarker(id, m2) {
				vals[id] = m.MarkerValue(id, m2)
			}
		}
		return vals
	}
	conc, lock := build(false), build(true)
	if len(conc) != len(lock) {
		t.Fatalf("engines disagree: concurrent %v vs lockstep %v", conc, lock)
	}
	for id, v := range lock {
		if conc[id] != v {
			t.Errorf("node %d: concurrent %v, lockstep %v", id, conc[id], v)
		}
	}
}

func TestBooleanAndCollect(t *testing.T) {
	m, ids, rel := newSmall(t, true, partition.Sequential)
	_ = rel
	p := isa.NewProgram()
	b0, b1, b2 := semnet.Binary(0), semnet.Binary(1), semnet.Binary(2)
	p.SearchNode(ids[0], b0, 0)
	p.SearchNode(ids[1], b0, 0)
	p.SearchNode(ids[1], b1, 0)
	p.SearchNode(ids[2], b1, 0)
	p.And(b0, b1, b2, semnet.FuncNop)
	p.CollectNode(b2)
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Names(0)
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("AND intersection = %v, want [b]", got)
	}
}

func TestRunWithoutKB(t *testing.T) {
	m, err := New(referenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(isa.NewProgram()); err != ErrNoKB {
		t.Fatalf("Run without KB: err=%v, want ErrNoKB", err)
	}
}
