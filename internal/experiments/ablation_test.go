package experiments

import (
	"strings"
	"testing"
)

func TestAblationPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("full parse runs")
	}
	res, err := AblationPartition()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]PartitionRow)
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	// Round-robin cuts nearly every link; the semantic partition must cut
	// far fewer and send fewer inter-cluster messages.
	if byName["semantic"].Cut >= byName["round-robin"].Cut {
		t.Errorf("semantic cut %.2f >= round-robin cut %.2f",
			byName["semantic"].Cut, byName["round-robin"].Cut)
	}
	if byName["semantic"].Messages >= byName["round-robin"].Messages {
		t.Errorf("semantic messages %d >= round-robin %d",
			byName["semantic"].Messages, byName["round-robin"].Messages)
	}
	// The refinement pass must improve on plain semantic BFS growth, and
	// the placement stage must not worsen the mean hop distance.
	if byName["refined"].Cut >= byName["semantic"].Cut {
		t.Errorf("refined cut %.2f >= semantic cut %.2f",
			byName["refined"].Cut, byName["semantic"].Cut)
	}
	if byName["refined"].Hops >= byName["semantic"].Hops {
		t.Errorf("refined hops %d >= semantic hops %d",
			byName["refined"].Hops, byName["semantic"].Hops)
	}
	if byName["refined+place"].HopCost > byName["refined"].HopCost {
		t.Errorf("placement raised hop cost: %.4f > %.4f",
			byName["refined+place"].HopCost, byName["refined"].HopCost)
	}
	// The basis of the machine's default mapping function: at this
	// setting round-robin parses faster than semantic because it spreads
	// the marker units' work more evenly, whatever it costs in messages.
	if rr, sem := byName["round-robin"], byName["semantic"]; rr.Time >= sem.Time {
		t.Errorf("round-robin parse %s >= semantic %s", rr.Time, sem.Time)
	}
	if rr, sem := byName["round-robin"], byName["semantic"]; rr.Skew >= sem.Skew {
		t.Errorf("round-robin MU-busy skew %.3f >= semantic %.3f", rr.Skew, sem.Skew)
	}
	for _, r := range res.Rows {
		if r.Skew < 1 || r.Critical <= 0 || r.Critical > 1 {
			t.Errorf("%s: MU-busy skew %.3f, critical busy share %.3f out of range", r.Name, r.Skew, r.Critical)
		}
		if r.Time <= 0 || r.Messages == 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Name, r)
		}
	}
	if !strings.Contains(res.String(), "Ablation") {
		t.Error("rendering")
	}
}

// The decision's finding, held as a shape: round-robin parses faster
// than semantic on every network of 4 000 nodes or more, at every array
// size. (At 2 000 nodes semantic may win; that row is not ruled on.)
func TestPartitionDecision(t *testing.T) {
	if testing.Short() {
		t.Skip("full parse runs")
	}
	res, err := PartitionDecision()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 {
		t.Fatalf("%d rows, want 5 sizes x 3 array sizes", len(res.Rows))
	}
	for _, r := range res.Rows {
		if len(r.Time) != 2*len(mappings) {
			t.Fatalf("%d x %d: %d times for %d mappings", r.Nodes, r.Clusters, len(r.Time), len(mappings))
		}
		rr, sem := r.Time[2], r.Time[4] // round-robin and semantic, without placement
		if r.Nodes == 4000 && r.Clusters == 16 {
			continue // TestAblationPartition's setting: it holds this row
		}
		if r.Nodes >= 4000 && rr >= sem {
			t.Errorf("%d nodes, %d clusters: round-robin %s >= semantic %s", r.Nodes, r.Clusters, rr, sem)
		}
	}
	if !strings.Contains(res.String(), "round-robin vs semantic") {
		t.Error("rendering")
	}
}

func TestAblationMUs(t *testing.T) {
	if testing.Short() {
		t.Skip("full parse runs")
	}
	res, err := AblationMUs()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// More marker units never hurt, and the second MU is the big win —
	// the design rationale for 2-3 MUs per cluster.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Speedup < res.Rows[i-1].Speedup*0.98 {
			t.Errorf("speedup regressed at %d MUs: %.2f after %.2f",
				res.Rows[i].MUsPerCluster, res.Rows[i].Speedup, res.Rows[i-1].Speedup)
		}
	}
	gain2 := res.Rows[1].Speedup - res.Rows[0].Speedup
	gain4 := res.Rows[3].Speedup - res.Rows[2].Speedup
	if gain4 >= gain2 {
		t.Errorf("diminishing returns expected: 2nd MU gain %.2f, 4th MU gain %.2f", gain2, gain4)
	}
	if !strings.Contains(res.String(), "marker units") {
		t.Error("rendering")
	}
}

func TestSpeechStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full decode runs")
	}
	res, err := SpeechStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The paper's PASS program ran β between 2.8 and 6; our hypothesis
	// overlap must land in a comparable multi-statement regime.
	if res.MeanBeta < 2 || res.MeanBeta > 8 {
		t.Errorf("mean β = %.1f, want the PASS range", res.MeanBeta)
	}
	// Semantic rescoring must beat chance: at least half the slots right
	// overall against acoustically competitive confusions.
	right, total := 0, 0
	for _, r := range res.Rows {
		right += r.SlotsRight
		total += r.Slots
		if r.Winner == "" {
			t.Errorf("lattice %q completed no sequence", r.Truth)
		}
	}
	if right*2 < total {
		t.Errorf("only %d/%d slots decoded correctly", right, total)
	}
	if !strings.Contains(res.String(), "PASS") {
		t.Error("rendering")
	}
}
