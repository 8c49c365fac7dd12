package experiments

import (
	"fmt"
	"math"

	"snap1/internal/baseline"
	"snap1/internal/inherit"
	"snap1/internal/kbgen"
	"snap1/internal/timing"
)

// Fig15Row compares SNAP-1 and the CM-2 model on root-to-leaf property
// inheritance at one knowledge-base size.
type Fig15Row struct {
	Nodes   int // requested knowledge-base size
	Reached int // concepts that inherited the property (identical on both)
	Depth   int // propagation depth
	SNAP    timing.Time
	CM2     timing.Time
}

// Fig15Result is the regenerated scalability comparison.
type Fig15Result struct {
	Rows []Fig15Row
	// CrossoverNodes extrapolates where the SNAP-1 line would cross the
	// CM-2 line (linear extrapolation of the last two points); 0 when the
	// slopes never converge. The paper: "the lines will cross when larger
	// knowledge bases are used".
	CrossoverNodes int
}

// DefaultFig15Sizes sweeps 0.4K..25.6K nodes (the paper shows up to 6.4K).
var DefaultFig15Sizes = []int{400, 800, 1600, 3200, 6400, 12800, 25600}

// Fig15 runs inheritance on the 16-cluster SNAP-1 and on the CM-2 model
// over the same generated knowledge bases, verifying that both reach the
// same concept set.
func Fig15(sizes []int) (*Fig15Result, error) {
	if len(sizes) == 0 {
		sizes = DefaultFig15Sizes
	}
	cm2 := baseline.DefaultCM2()
	out := &Fig15Result{}
	for _, n := range sizes {
		g, err := kbgen.Generate(kbgen.Params{Nodes: n, Seed: kbSeed})
		if err != nil {
			return nil, err
		}
		m, err := loadMachine(paperConfig(), g.KB)
		if err != nil {
			return nil, err
		}
		snap, err := inherit.Inheritance(m, g)
		if err != nil {
			return nil, err
		}
		cm, err := cm2.Inherit(g.KB, g.HierRoot, g.Rel.Subsumes)
		if err != nil {
			return nil, err
		}
		if snap.Reached != cm.Reached {
			return nil, fmt.Errorf("fig15: SNAP reached %d concepts, CM-2 model %d at %d nodes",
				snap.Reached, cm.Reached, n)
		}
		out.Rows = append(out.Rows, Fig15Row{
			Nodes:   n,
			Reached: snap.Reached,
			Depth:   cm.Steps,
			SNAP:    snap.Time,
			CM2:     cm.Time,
		})
	}
	out.CrossoverNodes = extrapolateCrossover(out.Rows)
	return out, nil
}

// extrapolateCrossover estimates the knowledge-base size where the SNAP-1
// line crosses the CM-2 line. SNAP-1 time is extended linearly from the
// last segment (its per-node work is linear in N); the CM-2 model is
// dominated by its fixed per-step overhead times a depth that grows one
// step per 4× size (the hierarchy's branching factor), so its curve is
// extended logarithmically. Returns 0 if no crossing within 1024× the
// measured range.
func extrapolateCrossover(rows []Fig15Row) int {
	if len(rows) < 2 {
		return 0
	}
	a, b := rows[len(rows)-2], rows[len(rows)-1]
	sSlope := float64(b.SNAP-a.SNAP) / float64(b.Nodes-a.Nodes)
	stepCost := float64(b.CM2) / float64(b.Depth)
	for n := b.Nodes; n < b.Nodes*1024; n += b.Nodes / 4 {
		snap := float64(b.SNAP) + float64(sSlope*float64(n-b.Nodes)) // rounds the product: no FMA on any GOARCH
		depth := float64(b.Depth) + math.Log(float64(n)/float64(b.Nodes))/math.Log(4)
		cm2 := stepCost * depth
		if snap >= cm2 {
			return n
		}
	}
	return 0
}

// String renders the comparison.
func (f *Fig15Result) String() string {
	header := []string{"KB nodes", "Reached", "Depth", "SNAP-1", "CM-2 model", "CM-2 / SNAP"}
	var rows [][]string
	for _, r := range f.Rows {
		ratio := float64(r.CM2) / float64(r.SNAP)
		rows = append(rows, []string{
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.Reached),
			fmt.Sprint(r.Depth),
			r.SNAP.String(),
			r.CM2.String(),
			fmt.Sprintf("%.1fx", ratio),
		})
	}
	s := "Fig. 15: property inheritance time vs knowledge-base size\n" + table(header, rows)
	if f.CrossoverNodes > 0 {
		s += fmt.Sprintf("extrapolated crossover at ~%d nodes (beyond the %d-node prototype capacity)\n",
			f.CrossoverNodes, 32*1024)
	}
	return s
}
