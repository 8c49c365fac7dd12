package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"snap1/internal/semnet"
)

// blobKB builds k dense communities of size each, joined by a sparse
// ring of bridge links: regions that talk mostly to their ring
// neighbors, which placement should land few hops apart.
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

func TestPlacePreservesPartition(t *testing.T) {
	kb := blobKB(t, 8, 32)
	a, err := Semantic(kb, 8, 40)
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
