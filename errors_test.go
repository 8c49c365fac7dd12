package snap1_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	snap1 "snap1"
)

func smallKB(t *testing.T) (*snap1.KB, snap1.NodeID, snap1.RelType) {
	t.Helper()
	kb := snap1.NewKB()
	class := kb.ColorFor("class")
	rel := kb.Relation("is-a")
	animal := kb.MustAddNode("animal", class)
	dog := kb.MustAddNode("dog", class)
	kb.MustAddLink(dog, rel, 1, animal)
	return kb, dog, rel
}

// TestErrKBNotLoaded asserts Run before LoadKB returns the sentinel.
func TestErrKBNotLoaded(t *testing.T) {
	m, err := snap1.New(snap1.PaperConfig(), snap1.WithDeterministic(false))
	if err != nil {
		t.Fatal(err)
	}
	p := snap1.NewProgram()
	p.CollectNode(1)
	if _, err := m.Run(p); !errors.Is(err, snap1.ErrKBNotLoaded) {
		t.Fatalf("Run = %v, want ErrKBNotLoaded", err)
	}
	if _, err := m.RunContext(context.Background(), p); !errors.Is(err, snap1.ErrKBNotLoaded) {
		t.Fatalf("RunContext = %v, want ErrKBNotLoaded", err)
	}
}

// TestErrNodeCapacity asserts LoadKB surfaces the capacity sentinel when
// the array is too small for the network.
func TestErrNodeCapacity(t *testing.T) {
	kb := snap1.NewKB()
	class := kb.ColorFor("class")
	for i := 0; i < 64; i++ {
		kb.MustAddNode("n"+strings.Repeat("x", i+1), class)
	}
	m, err := snap1.New(snap1.WithClusters(2), snap1.WithNodesPerCluster(4), snap1.WithDeterministic(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); !errors.Is(err, snap1.ErrNodeCapacity) {
		t.Fatalf("LoadKB = %v, want ErrNodeCapacity", err)
	}
}

// TestErrBadProgram asserts both validation and assembly failures wrap
// the bad-program sentinel.
func TestErrBadProgram(t *testing.T) {
	kb, dog, _ := smallKB(t)
	m, err := snap1.New(snap1.PaperConfig(), snap1.WithDeterministic(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}

	p := snap1.NewProgram()
	if err := p.Add(snap1.Instruction{Op: snap1.Opcode(250)}); !errors.Is(err, snap1.ErrBadProgram) {
		t.Fatalf("Add bad opcode = %v, want ErrBadProgram", err)
	}

	bad := snap1.NewProgram()
	bad.SearchNode(dog, 1, 0)
	bad.Instrs[0].M1 = 200 // corrupt after the builder's validation
	if _, err := m.Run(bad); !errors.Is(err, snap1.ErrBadProgram) {
		t.Fatalf("Run invalid program = %v, want ErrBadProgram", err)
	}
}

// TestErrBadProgramFromAssembler asserts assembly errors wrap the
// sentinel too.
func TestErrBadProgramFromAssembler(t *testing.T) {
	kb, _, _ := smallKB(t)
	asm := snap1.NewAssembler(kb)
	if _, err := asm.Assemble(strings.NewReader("bogus-op node=dog")); !errors.Is(err, snap1.ErrBadProgram) {
		t.Fatalf("Assemble = %v, want ErrBadProgram", err)
	}
}

// TestFunctionalOptions exercises the options constructor and its
// equivalence with the struct form.
func TestFunctionalOptions(t *testing.T) {
	m, err := snap1.New(
		snap1.WithClusters(8),
		snap1.WithMarkerUnits(2, 4),
		snap1.WithPartition("round-robin"),
		snap1.WithCapacityFor(10000),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	if cfg.Clusters != 8 || cfg.MUsPerCluster != 2 || cfg.ExtraMUClusters != 4 {
		t.Errorf("options not applied: %+v", cfg)
	}
	if !cfg.Deterministic {
		t.Error("the default engine is not lockstep")
	}
	if cfg.NodesPerCluster != 1250 {
		t.Errorf("WithCapacityFor: NodesPerCluster = %d, want 1250", cfg.NodesPerCluster)
	}

	// The struct form still works, including as a base for refinement.
	m2, err := snap1.New(snap1.PaperConfig(), snap1.WithDeterministic(false))
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Config(); got.Clusters != 16 || got.Deterministic {
		t.Errorf("struct+option composition broken: %+v", got)
	}

	// Unknown partition names surface at construction.
	if _, err := snap1.New(snap1.WithPartition("nonesuch")); err == nil {
		t.Error("unknown partition name silently accepted")
	}
}

// TestEngineFacade drives a query through the facade's engine surface.
func TestEngineFacade(t *testing.T) {
	kb, dog, rel := smallKB(t)
	eng, err := snap1.NewEngine(kb, snap1.WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	p := snap1.NewProgram()
	p.SearchNode(dog, 1, 0)
	p.Propagate(1, 2, snap1.PathRule(rel), snap1.FuncAdd)
	p.CollectNode(2)
	res, err := eng.Submit(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Names(0); len(got) != 1 || got[0] != "animal" {
		t.Errorf("engine result %v, want [animal]", got)
	}
	if st := eng.Stats(); st.Batches == 0 || st.Completed != 1 {
		t.Errorf("engine stats %+v, want 1 completed in ≥1 batch", st)
	}
}
