package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"snap1/internal/kbgen"
	"snap1/internal/semnet"
)

// blobKB builds k dense communities of size each, joined by a sparse
// ring of bridge links — the workload shape where a refinement pass
// should pull far ahead of plain BFS growth.
func blobKB(t *testing.T, k, size int) *semnet.KB {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("r")
	n := k * size
	for i := 0; i < n; i++ {
		kb.MustAddNode(fmt.Sprintf("n%d", i), col)
	}
	// Node IDs are shuffled across communities so block partitioners
	// can't win by accident of numbering.
	perm := rng.Perm(n)
	member := func(blob, j int) semnet.NodeID { return semnet.NodeID(perm[blob*size+j]) }
	for b := 0; b < k; b++ {
		for j := 0; j < size*4; j++ {
			u := member(b, rng.Intn(size))
			v := member(b, rng.Intn(size))
			if u != v {
				kb.MustAddLink(u, rel, 1, v)
			}
		}
		// One bridge to the next community.
		kb.MustAddLink(member(b, 0), rel, 1, member((b+1)%k, 0))
	}
	return kb
}

func TestRefinedDeterministic(t *testing.T) {
	kb := blobKB(t, 4, 64)
	a, err := Refined(kb, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		b, err := Refined(kb, 4, 80)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: node %d assigned %d then %d", trial, i, a[i], b[i])
			}
		}
	}
}

func TestRefinedBeatsSemanticOnCommunities(t *testing.T) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: 6000, Seed: 42, WithDomain: true})
	if err != nil {
		t.Fatal(err)
	}
	g.KB.Preprocess()
	for _, tc := range []struct {
		name               string
		kb                 *semnet.KB
		clusters, capacity int
		margin             float64 // refined's cut must be at most (1-margin) of semantic's
		maxCut             float64
	}{
		// Eight communities with one bridge each: refinement should leave
		// only a handful of cross-cluster links.
		{"blobs", blobKB(t, 8, 48), 8, 60, 0, 0.15},
		// The 6K-node MUC-4 network on the paper's 16-cluster array
		// (0.46 against 0.86 when this case was written).
		{"muc4-6k", g.KB, 16, 1024, 0.30, 1},
	} {
		ref, err := Refined(tc.kb, tc.clusters, tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		sem, err := Semantic(tc.kb, tc.clusters, tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		cutRef, cutSem := CutRatio(tc.kb, ref), CutRatio(tc.kb, sem)
		if limit := cutSem * (1 - tc.margin); cutRef >= limit {
			t.Errorf("%s: refined cut %.4f, want below %.4f (semantic's %.4f less %.0f%%)", tc.name, cutRef, limit, cutSem, tc.margin*100)
		}
		if cutRef > tc.maxCut {
			t.Errorf("%s: refined cut = %.4f, want at most %.2f", tc.name, cutRef, tc.maxCut)
		}
	}
}

func TestRefinedRespectsBalance(t *testing.T) {
	// One giant community plus a tail: label propagation must not herd
	// everything into a single cluster past the balance limit.
	kb := blobKB(t, 1, 200)
	clusters, capacity := 4, 64
	a, err := Refined(kb, clusters, capacity)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, "refined", a, 200, clusters, capacity)
}

func TestPlacePreservesPartition(t *testing.T) {
	kb := blobKB(t, 8, 32)
	a, err := Refined(kb, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	placed := Place(kb, a, 8)

	// Placement only relabels regions: co-residence and therefore the
	// link cut are untouched.
	if CutRatio(kb, placed) != CutRatio(kb, a) {
		t.Fatalf("placement changed cut: %.4f vs %.4f", CutRatio(kb, placed), CutRatio(kb, a))
	}
	for i := range a {
		for j := range a {
			if (a[i] == a[j]) != (placed[i] == placed[j]) {
				t.Fatalf("placement split/merged regions at nodes %d,%d", i, j)
			}
		}
	}

	// The relabeling must be a permutation of cluster addresses.
	order := PlaceOrder(kb, a, 8)
	seen := make([]bool, 8)
	for _, addr := range order {
		if addr < 0 || addr >= 8 || seen[addr] {
			t.Fatalf("PlaceOrder not a permutation: %v", order)
		}
		seen[addr] = true
	}

	// Placement exists to shorten routes: hop cost must not get worse.
	if hp, ha := HopCost(kb, placed, 8), HopCost(kb, a, 8); hp > ha {
		t.Fatalf("placement raised hop cost: %.4f > %.4f", hp, ha)
	}
}

func TestPlaceIdentityWhenTrivial(t *testing.T) {
	kb := lineKB(t, 16)
	a, _ := Sequential(kb, 2, 8)
	for i, addr := range PlaceOrder(kb, a, 2) {
		if addr != i {
			t.Fatalf("2-cluster placement must be identity, got %v", PlaceOrder(kb, a, 2))
		}
	}
}

func TestHopCost(t *testing.T) {
	kb := lineKB(t, 64)
	local, _ := Semantic(kb, 4, 16)
	spread, _ := RoundRobin(kb, 4, 16)
	hl, hs := HopCost(kb, local, 4), HopCost(kb, spread, 4)
	if hl >= hs {
		t.Fatalf("semantic hop cost %.4f >= round-robin %.4f", hl, hs)
	}
	if one := HopCost(kb, make(Assignment, 64), 4); one != 0 {
		t.Fatalf("all-local assignment hop cost = %.4f, want 0", one)
	}
}
