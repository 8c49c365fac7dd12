package experiments

import (
	"fmt"

	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/partition"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/trace"
)

// Fig21Row is the overhead breakdown at one cluster count.
type Fig21Row struct {
	Clusters int
	Overhead trace.Overhead
}

// Fig21Result reproduces the parallel-overhead study: instruction
// broadcast stays constant, message communication grows ~log N, barrier
// synchronization grows linearly but shallowly, and result collection
// grows linearly and steepest.
type Fig21Result struct {
	Rows []Fig21Row
}

// DefaultFig21Clusters sweeps 1..32 clusters.
var DefaultFig21Clusters = []int{1, 2, 4, 8, 16, 32}

// Fig21 runs a fixed four-phase workload (configure, propagate,
// synchronize, collect) at each cluster count with round-robin
// partitioning, so propagation chains cross clusters and exercise the
// interconnect.
func Fig21(clusterCounts []int) (*Fig21Result, error) {
	if len(clusterCounts) == 0 {
		clusterCounts = DefaultFig21Clusters
	}
	// 131 chains: prime, so round-robin placement is never congruent to
	// the cluster count and chain hops genuinely cross clusters.
	const alpha, depth = 131, 8
	w := kbgen.Chains(1, alpha, depth, kbSeed)

	out := &Fig21Result{}
	for _, c := range clusterCounts {
		cfg := machine.DefaultConfig()
		cfg.Clusters = c
		cfg.Partition = partition.RoundRobin
		m, err := loadMachine(cfg, w.KB)
		if err != nil {
			return nil, err
		}
		p := isa.NewProgram()
		src, dst := semnet.MarkerID(0), semnet.MarkerID(1)
		p.SearchColor(w.Seeds[0], src, 0)
		p.Propagate(src, dst, rules.Path(w.Rel), semnet.FuncAdd)
		p.Barrier()
		p.CollectNode(dst)
		res, err := m.Run(p)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig21Row{Clusters: c, Overhead: res.Profile.Overhead})
	}
	return out, nil
}

// String renders the breakdown.
func (f *Fig21Result) String() string {
	header := []string{"Clusters", "broadcast", "communication", "synchronization", "collection"}
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			fmt.Sprint(r.Clusters),
			r.Overhead.Broadcast.String(),
			r.Overhead.Communication.String(),
			r.Overhead.Synchronization.String(),
			r.Overhead.Collection.String(),
		})
	}
	return "Fig. 21: parallel overhead components vs number of clusters\n" + table(header, rows)
}
