package partition

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"snap1/internal/kbgen"
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
			"sequential": Sequential, "round-robin": RoundRobin, "semantic": Semantic,
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
	for _, f := range []Func{Sequential, RoundRobin, Semantic} {
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
	for _, name := range []string{"sequential", "seq", "round-robin", "rr", "semantic", "sem"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"mystery", "refined", "ref"} {
		if _, err := ByName(name); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
			t.Errorf("ByName(%q) = %v, want an unknown strategy error", name, err)
		}
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

// TestPartitionsPinned pins every mapping function's assignment, with
// and without placement, on the seed-42 12K network after Preprocess: an
// FNV-1a-64 digest of the cluster of each node, and the bits of its link
// cut and hop cost. A rewrite of how a strategy reads the knowledge base
// must leave all three exactly as they are.
func TestPartitionsPinned(t *testing.T) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: 12000, Seed: 42, WithDomain: true})
	if err != nil {
		t.Fatal(err)
	}
	kb := g.KB
	kb.Preprocess()
	type pin struct {
		name         string
		place        bool
		clusters     int
		digest       uint64
		cut, hopCost uint64 // math.Float64bits
	}
	funcs := map[string]Func{"sequential": Sequential, "round-robin": RoundRobin, "semantic": Semantic}
	for _, want := range []pin{
		{"sequential", false, 4, 0x25047f8ac0a514a5, 0x3fe2fc94ab214678, 0x3fe2fc94ab214678},
		{"sequential", false, 16, 0x64eb01b6d23e8aa5, 0x3fe6b8dcd59b4ffa, 0x3ff25819a9f7ce0d},
		{"sequential", false, 32, 0x2fe4465c9a289ea5, 0x3fe6dd833febb7ca, 0x3ff82d9716445466},
		{"sequential", true, 4, 0x4b157bba00a634a5, 0x3fe2fc94ab214678, 0x3fe2fc94ab214678},
		{"sequential", true, 16, 0xf8cb4533e7d8aaa5, 0x3fe6b8dcd59b4ffa, 0x3ff1253352833e7f},
		{"sequential", true, 32, 0xb0b4ab6024b9d105, 0x3fe6dd833febb7ca, 0x3ff58c5e235f0e37},
		{"round-robin", false, 4, 0xa98c49c743606125, 0x3fe96d4cb8297f89, 0x3fe96d4cb8297f89},
		{"round-robin", false, 16, 0xaa616179331f8f25, 0x3fee8c84913e600a, 0x3ff788ee8967847c},
		{"round-robin", false, 32, 0x7a447cefb4146a5, 0x3fef414701019e2e, 0x3ffde87b6d55425b},
		{"round-robin", true, 4, 0x811738e364dd4f25, 0x3fe96d4cb8297f89, 0x3fe96d4cb8297f89},
		{"round-robin", true, 16, 0x9ea1f0396bca2a45, 0x3fee8c84913e600a, 0x3ff72d7c0b51d873},
		{"round-robin", true, 32, 0x1470caf0d58ff685, 0x3fef414701019e2e, 0x3ffcf98b8b7d419a},
		{"semantic", false, 4, 0x8fd272653e0462b5, 0x3fe40ffd6b96578b, 0x3fe40ffd6b96578b},
		{"semantic", false, 16, 0xbfb8032d30a20605, 0x3feb5ad4817f948a, 0x3ff52e84c7544502},
		{"semantic", false, 32, 0xe3425648b0fe08c5, 0x3fecad93875a5190, 0x3ffbf92c2efdc269},
		{"semantic", true, 4, 0x5ab8ca64f5e82395, 0x3fe40ffd6b96578b, 0x3fe40ffd6b96578b},
		{"semantic", true, 16, 0xf2c2ebfc21910d5, 0x3feb5ad4817f948a, 0x3ff25a0eaaac907d},
		{"semantic", true, 32, 0xf3fcb1b5e4be9725, 0x3fecad93875a5190, 0x3ff7104e8c6dcb65},
	} {
		a, err := funcs[want.name](kb, want.clusters, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if want.place {
			a = Place(kb, a, want.clusters)
		}
		h := fnv.New64a()
		var buf [4]byte
		for _, c := range a {
			binary.LittleEndian.PutUint32(buf[:], uint32(c))
			h.Write(buf[:])
		}
		got := pin{want.name, want.place, want.clusters, h.Sum64(),
			math.Float64bits(CutRatio(kb, a)), math.Float64bits(HopCost(kb, a, want.clusters))}
		if got != want {
			t.Errorf("got  %#v\nwant %#v", got, want)
		}
	}
}
