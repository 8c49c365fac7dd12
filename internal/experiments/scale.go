package experiments

import (
	"fmt"

	"snap1/internal/inherit"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/nlu"
	"snap1/internal/timing"
)

// The paper's introduction positions SNAP-1 as "a testbed for an
// architecture which is being designed to handle a one-million concept
// knowledge base". This study runs that design exploration on the
// simulator: the array grows with the knowledge base (constant
// nodes-per-cluster load where possible), and the question is how
// inference time scales when hardware tracks knowledge.

// ScalePoint is one (knowledge base, array) size.
type ScalePoint struct {
	Nodes           int
	Clusters        int
	NodesPerCluster int
}

// DefaultScalePoints grows from the evaluation configuration to a
// quarter-million concepts. The million-concept point (256 clusters ×
// 4096 nodes) is included by cmd/figures -fig scale -million.
var DefaultScalePoints = []ScalePoint{
	{16_000, 16, 1024},
	{32_000, 32, 1024}, // the SNAP-1 prototype's full capacity
	{128_000, 64, 2048},
	{256_000, 128, 2048},
}

// MillionPoint is the SNAP-2 design target.
var MillionPoint = ScalePoint{1_000_000, 256, 4096}

// ScaleRow is one point's measurements.
type ScaleRow struct {
	Point       ScalePoint
	PEs         int
	InheritTime timing.Time
	InheritNode int         // concepts reached
	ParseTime   timing.Time // one representative sentence, M.B. stage
	ParseMsgs   int64
}

// ScaleResult is the scaling exploration.
type ScaleResult struct {
	Rows []ScaleRow
}

// Scale runs inheritance and one sentence parse at every point.
func Scale(points []ScalePoint) (*ScaleResult, error) {
	if len(points) == 0 {
		points = DefaultScalePoints
	}
	out := &ScaleResult{}
	for _, pt := range points {
		g, err := kbgen.Generate(kbgen.Params{Nodes: pt.Nodes, Seed: kbSeed, WithDomain: true})
		if err != nil {
			return nil, err
		}
		cfg := machine.DefaultConfig()
		cfg.Clusters = pt.Clusters
		cfg.NodesPerCluster = pt.NodesPerCluster
		cfg.ExtraMUClusters = pt.Clusters / 2
		m, err := loadMachine(cfg, g.KB)
		if err != nil {
			return nil, err
		}

		inh, err := inherit.Inheritance(m, g)
		if err != nil {
			return nil, err
		}
		m.ClearMarkers()
		parser := nlu.NewParser(m, g)
		s := g.Domain.Sentences[1] // "Guerrillas bombed the embassy."
		pres, err := parser.Parse(s)
		if err != nil {
			return nil, err
		}
		if pres.Winner != s.Expect {
			return nil, fmt.Errorf("scale %d: parsed %q, want %q", pt.Nodes, pres.Winner, s.Expect)
		}
		out.Rows = append(out.Rows, ScaleRow{
			Point:       pt,
			PEs:         cfg.PEs(),
			InheritTime: inh.Time,
			InheritNode: inh.Reached,
			ParseTime:   pres.MBTime,
			ParseMsgs:   pres.Profile.PropMessages,
		})
	}
	return out, nil
}

// String renders the exploration.
func (r *ScaleResult) String() string {
	header := []string{"KB nodes", "Clusters", "PEs", "Inherit (concepts)", "Inherit time", "Parse time", "Parse msgs"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.Point.Nodes),
			fmt.Sprint(row.Point.Clusters),
			fmt.Sprint(row.PEs),
			fmt.Sprint(row.InheritNode),
			row.InheritTime.String(),
			row.ParseTime.String(),
			fmt.Sprint(row.ParseMsgs),
		})
	}
	return "Scaling study: array growing with the knowledge base (the paper's million-concept goal)\n" +
		table(header, rows)
}
