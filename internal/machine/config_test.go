package machine

import (
	"errors"
	"fmt"
	"testing"

	"snap1/internal/partition"
	"snap1/internal/semnet"
)

// referenceConfig is DefaultConfig on the goroutine-per-cluster reference
// engine, which has to be asked for by name.
func referenceConfig() Config { return ApplyOptions(DefaultConfig(), WithDeterministic(false)) }

func TestDefaultConfigMatchesPrototype(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cfg.Deterministic {
		t.Error("the default engine is not lockstep")
	}
	// "an array of 144 Digital Signal Processors organized as 32
	// multiprocessing clusters" with "80 marker units".
	if cfg.Clusters != 32 {
		t.Errorf("clusters = %d", cfg.Clusters)
	}
	if cfg.PEs() != 144 {
		t.Errorf("PEs = %d, want 144", cfg.PEs())
	}
	if cfg.MarkerUnits() != 80 {
		t.Errorf("marker units = %d, want 80", cfg.MarkerUnits())
	}
	// 32K-node capacity.
	if cfg.Clusters*cfg.NodesPerCluster != 32*1024 {
		t.Errorf("capacity = %d nodes", cfg.Clusters*cfg.NodesPerCluster)
	}
	// "Presently, 16 clusters are implemented in the full five PE
	// configuration while the remaining 16 clusters have four PE's each."
	fives, fours := 0, 0
	for i := 0; i < cfg.Clusters; i++ {
		switch 2 + cfg.musOf(i) {
		case 5:
			fives++
		case 4:
			fours++
		}
	}
	if fives != 16 || fours != 16 {
		t.Errorf("cluster mix = %d five-PE, %d four-PE", fives, fours)
	}
}

func TestPaperConfigMatchesEvaluation(t *testing.T) {
	cfg := PaperConfig()
	// "a 16 cluster (72 processor) array".
	if cfg.Clusters != 16 || cfg.PEs() != 72 {
		t.Fatalf("evaluation config: %d clusters, %d PEs", cfg.Clusters, cfg.PEs())
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Clusters = 0 },
		func(c *Config) { c.MUsPerCluster = 0 },
		func(c *Config) { c.ExtraMUClusters = -1 },
		func(c *Config) { c.NodesPerCluster = 0 },
		func(c *Config) { c.MailboxCap = 0 },
		func(c *Config) { c.InstrQueueCap = 0 },
		func(c *Config) { c.MaxDepth = 0 },
		func(c *Config) { c.Partition = nil },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

func TestExtraMUClampsWhenScaledDown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 4 // ExtraMUClusters stays 16 from the template
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every cluster gets the extra MU; PEs = 4×(2+3).
	if cfg.PEs() != 20 || cfg.MarkerUnits() != 12 {
		t.Errorf("scaled config: %d PEs, %d MUs", cfg.PEs(), cfg.MarkerUnits())
	}
}

func TestLoadKBCapacityError(t *testing.T) {
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	for i := 0; i < 20; i++ {
		kb.MustAddNode(fmt.Sprintf("n%d", i), col)
	}
	cfg := referenceConfig()
	cfg.Clusters = 2
	cfg.NodesPerCluster = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); !errors.Is(err, partition.ErrTooLarge) {
		t.Fatalf("oversize load: %v", err)
	}
}

func TestLoadKBReplacesNetworkAndState(t *testing.T) {
	cfg := referenceConfig()
	cfg.Clusters = 2
	cfg.NodesPerCluster = 8
	m, _ := New(cfg)

	kb1 := semnet.NewKB()
	a := kb1.MustAddNode("a", 0)
	if err := m.LoadKB(kb1); err != nil {
		t.Fatal(err)
	}
	// Dirty some marker state.
	c := m.clusters[m.assign[a]]
	c.store.Set(int(m.localIdx[a]), 3)

	kb2 := semnet.NewKB()
	kb2.MustAddNode("x", 0)
	kb2.MustAddNode("y", 0)
	if err := m.LoadKB(kb2); err != nil {
		t.Fatal(err)
	}
	if m.KB() != kb2 {
		t.Fatal("KB accessor")
	}
	if m.MarkerCount(3) != 0 {
		t.Fatal("marker state must not survive a reload")
	}
	total := 0
	for _, c := range m.clusters {
		total += c.store.NumNodes()
	}
	if total != 2 {
		t.Fatalf("array holds %d nodes after reload", total)
	}
}

func TestResultAccessors(t *testing.T) {
	r := &Result{}
	if r.Collected(0) != nil || r.Collected(-1) != nil {
		t.Error("out-of-range collections must be nil")
	}
}
