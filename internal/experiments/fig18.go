package experiments

import (
	"fmt"

	"snap1/internal/isa"
	"snap1/internal/timing"
	"snap1/internal/trace"
)

// Fig18Row is one cluster count's per-instruction-class execution time on
// a fixed NLU workload.
type Fig18Row struct {
	Clusters  int
	GroupTime map[isa.Group]timing.Time
	Total     timing.Time
}

// Fig18Result shows how the instruction profile shifts as the array grows
// from 1 to 16 clusters (the paper: propagation time drops by nearly an
// order of magnitude while collection grows slightly).
type Fig18Result struct {
	Rows []Fig18Row
}

// DefaultFig18Clusters sweeps the paper's 1..16 cluster range.
var DefaultFig18Clusters = []int{1, 2, 4, 8, 16}

// profiledGroups are the classes plotted in Figs. 18 and 19.
var profiledGroups = []isa.Group{
	isa.GroupPropagate, isa.GroupSetClear, isa.GroupBoolean,
	isa.GroupSearch, isa.GroupCollect, isa.GroupNodeMaint,
}

// Fig18 runs the same parse workload at each cluster count.
func Fig18(clusterCounts []int) (*Fig18Result, error) {
	if len(clusterCounts) == 0 {
		clusterCounts = DefaultFig18Clusters
	}
	out := &Fig18Result{}
	for _, c := range clusterCounts {
		prof, err := nluProfile(4000, c, 1)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, groupRow(c, prof))
	}
	return out, nil
}

func groupRow(clusters int, prof *trace.Profile) Fig18Row {
	row := Fig18Row{Clusters: clusters, GroupTime: make(map[isa.Group]timing.Time)}
	for _, g := range profiledGroups {
		row.GroupTime[g] = prof.GroupTime[g]
		row.Total += prof.GroupTime[g]
	}
	return row
}

// nluProfile parses the sentence batch on a fresh machine and returns the
// merged profile.
func nluProfile(nodes, clusters, repeat int) (*trace.Profile, error) {
	m, g, err := nluSetup(nodes, clusters, paperConfig())
	if err != nil {
		return nil, err
	}
	p := newParser(m, g)
	prof, _, err := parseBatch(p, g, repeat)
	return prof, err
}

// PropagateRatio reports first-row propagate time over last-row propagate
// time (the near-order-of-magnitude reduction headline).
func (f *Fig18Result) PropagateRatio() float64 {
	if len(f.Rows) < 2 {
		return 1
	}
	a := f.Rows[0].GroupTime[isa.GroupPropagate]
	b := f.Rows[len(f.Rows)-1].GroupTime[isa.GroupPropagate]
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// String renders the sweep.
func (f *Fig18Result) String() string {
	return renderGroupSweep("Fig. 18: instruction time vs number of clusters",
		"Clusters", f.Rows, func(r Fig18Row) string { return fmt.Sprint(r.Clusters) })
}

func renderGroupSweep[T any](title, axis string, rowsIn []T, label func(T) string) string {
	header := []string{axis}
	for _, g := range profiledGroups {
		header = append(header, g.String())
	}
	header = append(header, "total")
	var rows [][]string
	for _, r := range rowsIn {
		var gt map[isa.Group]timing.Time
		var total timing.Time
		switch v := any(r).(type) {
		case Fig18Row:
			gt, total = v.GroupTime, v.Total
		case Fig19Row:
			gt, total = v.GroupTime, v.Total
		}
		row := []string{label(r)}
		for _, g := range profiledGroups {
			row = append(row, gt[g].String())
		}
		row = append(row, total.String())
		rows = append(rows, row)
	}
	return title + "\n" + table(header, rows)
}
