package machine

import (
	"context"
	"errors"
	"testing"
	"time"

	"snap1/internal/isa"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// stepCtx is a deterministic context: it reports Canceled after its
// Err method has been consulted n times, letting tests cancel exactly
// mid-run without goroutine timing.
type stepCtx struct {
	context.Context
	remaining int
}

func (c *stepCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func buildContextKB(t *testing.T) (*semnet.KB, semnet.NodeID, semnet.RelType) {
	t.Helper()
	kb := semnet.NewKB()
	class := kb.ColorFor("class")
	isaRel := kb.Relation("is-a")
	prev := kb.MustAddNode("n0", class)
	root := prev
	for i := 1; i < 20; i++ {
		n := kb.MustAddNode("n"+string(rune('a'+i)), class)
		kb.MustAddLink(n, isaRel, 1, prev)
		prev = n
	}
	_ = root
	return kb, prev, isaRel
}

func newLoaded(t *testing.T) (*Machine, *semnet.KB, semnet.NodeID, semnet.RelType) {
	t.Helper()
	kb, leaf, rel := buildContextKB(t)
	cfg := PaperConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	return m, kb, leaf, rel
}

// TestRunContextCancelMidRun cancels between instructions and requires
// the machine to stay usable after ClearMarkers.
func TestRunContextCancelMidRun(t *testing.T) {
	m, _, leaf, rel := newLoaded(t)
	p := newInheritProgram(leaf, rel)

	// The program has 3 instructions; allow 2 Err checks, so the run
	// aborts before its final instruction.
	ctx := &stepCtx{Context: context.Background(), remaining: 2}
	if _, err := m.RunContext(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}

	// After clearing markers the same machine must produce the full
	// result.
	m.ClearMarkers()
	res, err := m.RunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collected(0)) != 19 {
		t.Errorf("post-cancel run collected %d nodes, want 19", len(res.Collected(0)))
	}
}

func newInheritProgram(leaf semnet.NodeID, rel semnet.RelType) *isa.Program {
	p := isa.NewProgram()
	p.SearchNode(leaf, 1, 0)
	p.Propagate(1, 2, rules.Path(rel), semnet.FuncAdd)
	p.CollectNode(2)
	return p
}

// TestRunContextDeadline honors an already-expired deadline.
func TestRunContextDeadline(t *testing.T) {
	m, _, leaf, rel := newLoaded(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := m.RunContext(ctx, newInheritProgram(leaf, rel)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v, want DeadlineExceeded", err)
	}
}

// TestCloneSharesTopologyNotMarkers verifies a clone reuses the loaded
// partition but runs with independent marker state.
func TestCloneSharesTopologyNotMarkers(t *testing.T) {
	m, _, leaf, rel := newLoaded(t)
	p := newInheritProgram(leaf, rel)

	// Dirty the original's markers.
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}

	r, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Clone starts with clean markers.
	if n := r.MarkerCount(2); n != 0 {
		t.Fatalf("clone starts with %d marked nodes, want 0", n)
	}
	// Same partition: every node lives in the same cluster.
	if r.ClusterOf(leaf) != m.ClusterOf(leaf) {
		t.Error("clone re-partitioned the knowledge base")
	}
	// Same results, independently.
	res, err := r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := func() (*Result, error) { m.ClearMarkers(); return m.Run(p) }()
	if got, exp := res.Names(0), want.Names(0); len(got) != len(exp) {
		t.Fatalf("clone result %v, original %v", got, exp)
	}
	if res.Time != want.Time {
		t.Errorf("clone virtual time %v != original %v (deterministic engine)", res.Time, want.Time)
	}
}

// TestCloneBeforeLoadKB returns the KB sentinel.
func TestCloneBeforeLoadKB(t *testing.T) {
	m, err := New(ApplyOptions(PaperConfig(), WithDeterministic(false)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Clone(); !errors.Is(err, ErrNoKB) {
		t.Fatalf("Clone = %v, want ErrNoKB", err)
	}
}
