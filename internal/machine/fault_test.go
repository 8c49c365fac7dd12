package machine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"snap1/internal/fault"
	"snap1/internal/isa"
	"snap1/internal/partition"
	"snap1/internal/perfmon"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// faultChainKB builds a linear is-a style chain long enough that round-robin
// partitioning forces most propagation hops across clusters.
func faultChainKB(t *testing.T, n int) (*semnet.KB, semnet.RelType) {
	t.Helper()
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("r")
	for i := 0; i < n; i++ {
		kb.MustAddNode(fmt.Sprintf("n%d", i), col)
	}
	for i := 0; i+1 < n; i++ {
		kb.MustAddLink(semnet.NodeID(i), rel, 1, semnet.NodeID(i+1))
	}
	return kb, rel
}

func faultMachine(t *testing.T, det bool, mon *perfmon.Collector, plan *fault.Plan) (*Machine, *isa.Program) {
	t.Helper()
	kb, rel := faultChainKB(t, 24)
	cfg := DefaultConfig()
	cfg.Clusters = 4
	cfg.NodesPerCluster = 16
	cfg.Deterministic = det
	cfg.Partition = partition.RoundRobin
	cfg.Monitor = mon
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	if err := m.SetFaultInjector(plan.Injector(0)); err != nil {
		t.Fatal(err)
	}
	p := isa.NewProgram()
	p.SearchNode(0, 0, 0)
	p.Propagate(0, 1, rules.Path(rel), semnet.FuncAdd)
	p.Barrier()
	return m, p
}

// Same plan, same seed, lockstep engine: two independent machines must
// produce the identical perfmon event sequence, fault events included.
func TestFaultPlanDeterministicEvents(t *testing.T) {
	plan := &fault.Plan{Seed: 11, Rules: []fault.Rule{{Site: "icn-drop", Rate: 0.3}}}
	runOnce := func() []perfmon.Record {
		mon := perfmon.NewCollector(1 << 16)
		m, p := faultMachine(t, true, mon, plan)
		if _, err := m.Run(p); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("run under 30%% drops: %v", err)
		}
		return mon.Drain()
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Code == perfmon.EvFaultInjected {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no fault-injected events recorded")
	}
}

// The reference engine moves messages through the live interconnect,
// which has no injection points: arming it is refused outright rather
// than honoured for the whole-run sites only, and it stays unarmed.
func TestArmingConcurrentMachineRefused(t *testing.T) {
	m, p := faultMachine(t, false, nil, nil)
	defer m.Close()
	plan := &fault.Plan{Seed: 5, Rules: []fault.Rule{{Site: "icn-drop", Rate: 1}, {Site: "machine-wedge", Rate: 1}}}
	if err := m.SetFaultInjector(plan.Injector(0)); !errors.Is(err, ErrFaultsNeedLockstep) {
		t.Fatalf("arming a concurrent machine: %v, want ErrFaultsNeedLockstep", err)
	}
	if m.inj != nil {
		t.Fatal("refused injector was stored")
	}
	if _, err := m.Run(p); err != nil {
		t.Fatalf("unarmed concurrent machine must run clean: %v", err)
	}
	if err := m.SetFaultInjector(nil); err != nil {
		t.Fatalf("disarming: %v", err)
	}
}

func TestWedgeHonorsDeadline(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Rules: []fault.Rule{{Site: "machine-wedge", Rate: 1}}}
	m, p := faultMachine(t, true, nil, plan)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := m.RunContext(ctx, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wedged run: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("wedge ignored the deadline")
	}
}

// A slowdown costs host time only: the run succeeds with the same
// virtual-time result as an unfaulted machine.
func TestStallAndSlowDoNotPoison(t *testing.T) {
	clean, p := faultMachine(t, true, nil, nil)
	want, err := clean.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Seed: 9, Rules: []fault.Rule{{Site: "machine-slow", Rate: 1, StallUs: 100}}}
	slow, p2 := faultMachine(t, true, nil, plan)
	got, err := slow.Run(p2)
	if err != nil {
		t.Fatalf("stalled run must still succeed: %v", err)
	}
	if n := slow.inj.Total(); n != 1 {
		t.Fatalf("%d injections fired, want the one slowdown", n)
	}
	if got.Time != want.Time {
		t.Errorf("virtual time perturbed by host stalls: %v vs %v", got.Time, want.Time)
	}
}

// A wedge consumed by one run must not leak into the next: with the
// count budget spent, the machine serves normally again.
func TestWedgeBudgetExpires(t *testing.T) {
	plan := &fault.Plan{Seed: 2, Rules: []fault.Rule{{Site: "machine-wedge", Rate: 1, Count: 1}}}
	m, p := faultMachine(t, true, nil, plan)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err := m.RunContext(ctx, p)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first run should wedge: %v", err)
	}
	m.ClearMarkers()
	if _, err := m.Run(p); err != nil {
		t.Fatalf("second run should succeed: %v", err)
	}
}

// The injector is the machine's, not the loaded clusters': it survives a
// LoadKB with nothing to rewire.
func TestLoadKBRewiresInjector(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Rules: []fault.Rule{{Site: "icn-drop", Rate: 1}}}
	m, _ := faultMachine(t, true, nil, plan)
	kb2, rel2 := faultChainKB(t, 24)
	if err := m.LoadKB(kb2); err != nil {
		t.Fatal(err)
	}
	p2 := isa.NewProgram()
	p2.SearchNode(0, 0, 0)
	p2.Propagate(0, 1, rules.Path(rel2), semnet.FuncAdd)
	p2.Barrier()
	if _, err := m.Run(p2); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injector lost across LoadKB: %v", err)
	}
}

func TestCloneStartsUnarmed(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Rules: []fault.Rule{{Site: "icn-drop", Rate: 1}}}
	m, p := faultMachine(t, true, nil, plan)
	r, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if r.inj != nil {
		t.Fatal("clone inherited the injector")
	}
	if _, err := r.Run(p); err != nil {
		t.Fatalf("unarmed clone must run clean: %v", err)
	}
}
