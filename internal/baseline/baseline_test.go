package baseline

import (
	"testing"

	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

func TestCM2InheritChain(t *testing.T) {
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("down")
	var prev semnet.NodeID
	for i := 0; i < 5; i++ {
		id := kb.MustAddNode(string(rune('a'+i)), col)
		if i > 0 {
			kb.MustAddLink(prev, rel, 1, id)
		}
		prev = id
	}
	cm2 := DefaultCM2()
	root, _ := kb.Lookup("a")
	res, err := cm2.Inherit(kb, root, rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 4 {
		t.Fatalf("reached %d, want 4", res.Reached)
	}
	if res.Steps != 5 {
		t.Fatalf("steps %d, want 5 (4 levels + final empty check costs nothing... )", res.Steps)
	}
	// The step loop charges one controller round trip per level.
	if res.Time < timing.Time(res.Steps)*cm2.StepOverhead {
		t.Fatalf("time %v below %d step overheads", res.Time, res.Steps)
	}
}

func TestCM2MatchesSNAPReachability(t *testing.T) {
	g := kbgen.MustGenerate(kbgen.Params{Nodes: 800, Seed: 9})
	g.KB.Preprocess()
	cm2 := DefaultCM2()
	res, err := cm2.Inherit(g.KB, g.HierRoot, g.Rel.Subsumes)
	if err != nil {
		t.Fatal(err)
	}
	// Count hierarchy descendants by direct traversal for reference.
	want := countReachable(g.KB, g.HierRoot, g.Rel.Subsumes)
	if res.Reached != want {
		t.Fatalf("CM-2 reached %d, reference %d", res.Reached, want)
	}
}

func countReachable(kb *semnet.KB, root semnet.NodeID, rel semnet.RelType) int {
	visited := map[semnet.NodeID]bool{root: true}
	stack := []semnet.NodeID{root}
	n := 0
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range kb.Links(id) {
			if (l.Rel == rel || l.Rel == semnet.RelCont) && !visited[l.To] {
				visited[l.To] = true
				stack = append(stack, l.To)
				n++
			}
		}
	}
	return n
}

func TestCM2BadRoot(t *testing.T) {
	kb := semnet.NewKB()
	kb.MustAddNode("only", 0)
	if _, err := DefaultCM2().Inherit(kb, semnet.NodeID(5), 0); err == nil {
		t.Fatal("missing root must fail")
	}
}

func TestCM2StepCostsGrowWithVirtualization(t *testing.T) {
	// With fewer processors than nodes, the per-step sweep must fold.
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("r")
	root := kb.MustAddNode("root", col)
	for i := 0; i < 100; i++ {
		id := kb.MustAddNode(string(rune('A'))+string(rune('0'+i%10))+string(rune('0'+i/10)), col)
		kb.MustAddLink(root, rel, 1, id)
	}
	kb.Preprocess()
	small := CM2{Procs: 8, StepOverhead: 0, PerNode: 1 * timing.Microsecond}
	big := CM2{Procs: 1 << 20, StepOverhead: 0, PerNode: 1 * timing.Microsecond}
	rs, err := small.Inherit(kb, root, rel)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := big.Inherit(kb, root, rel)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Time <= rb.Time {
		t.Fatalf("8-PE sweep (%v) must cost more than wide array (%v)", rs.Time, rb.Time)
	}
}

// TestSequentialConfig: the single-marker-unit, single-cluster SNAP-1,
// widened to hold a network that normally spans the array, is a machine.
func TestSequentialConfig(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Clusters, cfg.MUsPerCluster, cfg.ExtraMUClusters, cfg.NodesPerCluster = 1, 1, 0, 5000
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Clusters != 1 || cfg.MarkerUnits() != 1 {
		t.Fatal("sequential reference must be one cluster, one MU")
	}
	if cfg.NodesPerCluster < 5000 {
		t.Fatal("capacity widening")
	}
	if cfg.PEs() != 3 {
		t.Fatalf("PEs = %d, want 3 (PU+MU+CU)", cfg.PEs())
	}
	m, err := machine.New(cfg)
	if err != nil || m == nil {
		t.Fatal(err)
	}
}
