package kbgen

import (
	"reflect"
	"testing"

	"snap1/internal/semnet"
)

// Generate builds through a semnet.Builder; the locked per-element calls
// of semnet.KB must build the same network from the same parameters:
// node for node, link for link, the name tables and the generation. The
// handles Generate returns must not depend on the path either.
func TestBuiltKBMatchesPerElementKB(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, domain := range []bool{false, true} {
			p := Params{Nodes: 12000, Seed: seed, WithDomain: domain}
			built, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			kb := semnet.NewKB()
			ref, err := generate(p, kb)
			if err != nil {
				t.Fatal(err)
			}
			if err := semnet.Diff(built.KB, kb); err != nil {
				t.Errorf("seed %d, domain %v: %v", seed, domain, err)
			}
			ref.KB = built.KB
			if !reflect.DeepEqual(built, ref) {
				t.Errorf("seed %d, domain %v: the handles differ", seed, domain)
			}
			if n := built.KB.NumNodes(); n > nodeCount(p) || n < nodeCount(p)-1 {
				t.Errorf("seed %d, domain %v: %d nodes, sized for %d", seed, domain, n, nodeCount(p))
			}
		}
	}
	// The network snapd serves by default: its generation (one more after
	// Preprocess) is what /v1/stats reports at start-up.
	g := MustGenerate(Params{Nodes: 12000, Seed: 42, WithDomain: true})
	if got := g.KB.Generation(); got != 57951 {
		t.Errorf("seed 42 with the domain: generation %d, want 57951", got)
	}
}

// Building the 12 000-node network costs one allocation per node name
// plus the growth of each node's link list (about 46 500 in all). The
// per-element path made about 56 600: its node table and name index
// regrew, and fmt built every name.
func TestGenerateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := Params{Nodes: 12000, Seed: 42, WithDomain: true}
	allocs := testing.AllocsPerRun(3, func() { MustGenerate(p) })
	if allocs > 48000 {
		t.Errorf("Generate made %.0f allocations, want at most 48 000", allocs)
	}
}
