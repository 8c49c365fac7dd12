package experiments

import (
	"fmt"

	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/partition"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// Fig16Alphas are the α-parallelism levels swept (source activations per
// PROPAGATE), matching the paper's 10..1000 range.
var Fig16Alphas = []int{10, 100, 1000}

// fig16Config is one point on the processor axis.
type fig16Config struct {
	clusters, mus, extra int
}

// fig16Configs sweeps the array from a single 3-PE cluster to the full
// 72-PE evaluation configuration.
var fig16Configs = []fig16Config{
	{1, 1, 0},  // 3 PEs
	{1, 2, 0},  // 4
	{2, 2, 0},  // 8
	{4, 2, 0},  // 16
	{4, 2, 4},  // 20
	{8, 2, 0},  // 32
	{8, 2, 8},  // 40
	{16, 2, 0}, // 64
	{16, 2, 8}, // 72
}

// Fig16Row is one machine size's speedup per α level.
type Fig16Row struct {
	PEs      int
	Clusters int
	MUs      int
	Speedup  map[int]float64 // α -> speedup vs the 3-PE configuration
}

// Fig16Result is the regenerated α-parallelism speedup study.
type Fig16Result struct {
	Rows  []Fig16Row
	Depth int
}

// Fig16 measures propagation speedup under α-parallelism: α chains of
// fixed depth propagate simultaneously from a single PROPAGATE statement,
// across machine sizes from 3 to 72 PEs. The network stays at its full
// α=1000 size for every run; smaller α levels activate nested subsets of
// the chain sources, as the paper varied activation over a fixed
// knowledge base.
func Fig16() (*Fig16Result, error) {
	const depth = 12
	w, err := kbgen.NestedChains(Fig16Alphas, depth, kbSeed)
	if err != nil {
		return nil, err
	}
	out := &Fig16Result{Depth: depth}
	base := make(map[int]timing.Time)

	for _, fc := range fig16Configs {
		cfg := machine.DefaultConfig()
		cfg.Clusters = fc.clusters
		cfg.MUsPerCluster = fc.mus
		cfg.ExtraMUClusters = fc.extra
		cfg.Partition = partition.Semantic
		row := Fig16Row{
			PEs:      cfg.PEs(),
			Clusters: fc.clusters,
			MUs:      cfg.MarkerUnits(),
			Speedup:  make(map[int]float64),
		}
		for ai, alpha := range Fig16Alphas {
			t, err := alphaRun(cfg, w, ai, alpha, depth)
			if err != nil {
				return nil, err
			}
			if fc == fig16Configs[0] {
				base[alpha] = t
			}
			row.Speedup[alpha] = float64(base[alpha]) / float64(t)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// alphaRun times one PROPAGATE activating the first levelIdx+1 nested
// seed-color sets (alpha chain sources in total).
func alphaRun(cfg machine.Config, w *kbgen.Workload, levelIdx, alpha, depth int) (timing.Time, error) {
	m, err := loadMachine(cfg, w.KB)
	if err != nil {
		return 0, err
	}
	p := isa.NewProgram()
	src, dst := semnet.MarkerID(0), semnet.MarkerID(1)
	for j := 0; j <= levelIdx; j++ {
		p.SearchColor(w.Seeds[j], src, 0)
	}
	p.Propagate(src, dst, rules.Path(w.Rel), semnet.FuncAdd)
	p.Barrier()
	res, err := m.Run(p)
	if err != nil {
		return 0, err
	}
	if got, want := m.MarkerCount(dst), alpha*depth; got != want {
		return 0, fmt.Errorf("fig16: propagation reached %d nodes, want %d", got, want)
	}
	return res.Time, nil
}

// String renders the speedup table.
func (f *Fig16Result) String() string {
	header := []string{"PEs", "Clusters", "MUs"}
	for _, a := range Fig16Alphas {
		header = append(header, fmt.Sprintf("α=%d", a))
	}
	var rows [][]string
	for _, r := range f.Rows {
		row := []string{fmt.Sprint(r.PEs), fmt.Sprint(r.Clusters), fmt.Sprint(r.MUs)}
		for _, a := range Fig16Alphas {
			row = append(row, fmt.Sprintf("%.1fx", r.Speedup[a]))
		}
		rows = append(rows, row)
	}
	return "Fig. 16: speedup vs processors under α-parallelism\n" + table(header, rows)
}
