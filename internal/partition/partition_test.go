package partition

import (
	"errors"
	"fmt"
	"testing"

	"snap1/internal/semnet"
)

// lineKB builds a linear chain of n nodes.
func lineKB(t *testing.T, n int) *semnet.KB {
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
	return kb
}

func checkAssignment(t *testing.T, name string, a Assignment, n, clusters, capacity int) {
	t.Helper()
	if len(a) != n {
		t.Fatalf("%s: assignment length %d, want %d", name, len(a), n)
	}
	counts := balance(a, clusters)
	total := 0
	for c, cnt := range counts {
		if cnt > capacity {
			t.Errorf("%s: cluster %d holds %d > capacity %d", name, c, cnt, capacity)
		}
		total += cnt
	}
	if total != n {
		t.Errorf("%s: %d nodes assigned, want %d", name, total, n)
	}
}

func TestAllStrategiesRespectCapacity(t *testing.T) {
	for _, tc := range []struct{ n, clusters, capacity int }{
		{100, 4, 30},
		{128, 4, 32}, // exactly full
		{1, 8, 4},
		{33, 2, 17},
	} {
		kb := lineKB(t, tc.n)
		for name, f := range map[string]Func{
			"sequential": Sequential, "round-robin": RoundRobin,
			"semantic": Semantic, "refined": Refined,
		} {
			a, err := f(kb, tc.clusters, tc.capacity)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, tc, err)
			}
			checkAssignment(t, name, a, tc.n, tc.clusters, tc.capacity)
		}
	}
}

func TestTooLarge(t *testing.T) {
	kb := lineKB(t, 100)
	for _, f := range []Func{Sequential, RoundRobin, Semantic, Refined} {
		if _, err := f(kb, 4, 10); !errors.Is(err, ErrTooLarge) {
			t.Errorf("expected ErrTooLarge, got %v", err)
		}
	}
}

func TestSequentialIsBlocky(t *testing.T) {
	kb := lineKB(t, 100)
	a, err := Sequential(kb, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster index must be non-decreasing over node IDs.
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("sequential not blocky at %d", i)
		}
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	kb := lineKB(t, 100)
	a, _ := RoundRobin(kb, 4, 30)
	for i, c := range a {
		if c != i%4 {
			t.Fatalf("round-robin at %d = %d", i, c)
		}
	}
}

func TestSemanticKeepsChainsLocal(t *testing.T) {
	// A chain is maximally connected: a connectivity-based partition
	// must cut far fewer links than round-robin.
	kb := lineKB(t, 256)
	sem, _ := Semantic(kb, 4, 64)
	rr, _ := RoundRobin(kb, 4, 64)
	cutSem, cutRR := CutRatio(kb, sem), CutRatio(kb, rr)
	if cutSem >= cutRR {
		t.Fatalf("semantic cut %.2f >= round-robin cut %.2f", cutSem, cutRR)
	}
	if cutSem > 0.05 {
		t.Errorf("semantic cut of a chain = %.2f, want near zero", cutSem)
	}
	if cutRR < 0.9 {
		t.Errorf("round-robin cut of a chain = %.2f, want near one", cutRR)
	}
}

func TestCutRatioEmpty(t *testing.T) {
	kb := semnet.NewKB()
	kb.MustAddNode("solo", 0)
	a, _ := Sequential(kb, 2, 4)
	if CutRatio(kb, a) != 0 {
		t.Error("no links → zero cut")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sequential", "seq", "round-robin", "rr", "semantic", "sem", "refined", "ref"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("mystery"); err == nil {
		t.Error("unknown strategy must fail")
	}
}

// balance reports the per-cluster node counts of an assignment.
func balance(a Assignment, clusters int) []int {
	counts := make([]int, clusters)
	for _, c := range a {
		if c >= 0 && c < clusters {
			counts[c]++
		}
	}
	return counts
}
