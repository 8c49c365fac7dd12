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

// Fig17Betas are the overlapped-PROPAGATE degrees swept. 32 is the
// binary-marker budget limit (two markers per overlapped statement).
var Fig17Betas = []int{1, 2, 4, 8, 16, 32}

// Fig17Row is one β degree's overlap speedup.
type Fig17Row struct {
	Beta       int
	Overlapped timing.Time // β PROPAGATEs issued into one overlap window
	Serialized timing.Time // the same β PROPAGATEs with barriers between
	Speedup    float64
}

// Fig17Result is the regenerated β-parallelism study: speedup saturates
// once the overlapped statements exhaust the marker-unit pool (the paper:
// "increasing the degree of β-parallelism above 16 had little impact").
type Fig17Result struct {
	Rows []Fig17Row
}

// Fig17 measures inter-propagation overlap on the 72-PE configuration.
func Fig17() (*Fig17Result, error) {
	const alpha, depth = 32, 10
	maxBeta := Fig17Betas[len(Fig17Betas)-1]
	w := kbgen.Chains(maxBeta, alpha, depth, kbSeed)

	out := &Fig17Result{}
	for _, beta := range Fig17Betas {
		over, err := betaRun(w, beta, maxBeta, false)
		if err != nil {
			return nil, err
		}
		serial, err := betaRun(w, beta, maxBeta, true)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig17Row{
			Beta:       beta,
			Overlapped: over,
			Serialized: serial,
			Speedup:    float64(serial) / float64(over),
		})
	}
	return out, nil
}

// betaRun times beta independent PROPAGATEs, either overlapped in one
// issue window or serialized with explicit barriers. The active groups
// are strided across the group space so that connectivity partitioning
// places them in distinct clusters — the overlap benefit then saturates
// exactly when the overlapped statements exhaust the marker-unit pool.
func betaRun(w *kbgen.Workload, beta, maxBeta int, serialize bool) (timing.Time, error) {
	cfg := machine.PaperConfig()
	cfg.Partition = partition.Semantic
	m, err := loadMachine(cfg, w.KB)
	if err != nil {
		return 0, err
	}
	group := func(i int) int { return i * maxBeta / beta }
	p := isa.NewProgram()
	for b := 0; b < beta; b++ {
		p.SearchColor(w.Seeds[group(b)], semnet.Binary(2*b), 0)
	}
	for b := 0; b < beta; b++ {
		p.Propagate(semnet.Binary(2*b), semnet.Binary(2*b+1), rules.Path(w.Rel), semnet.FuncNop)
		if serialize {
			p.Barrier()
		}
	}
	p.Barrier()
	res, err := m.Run(p)
	if err != nil {
		return 0, err
	}
	for b := 0; b < beta; b++ {
		if got, want := m.MarkerCount(semnet.Binary(2*b+1)), w.Alpha*w.Depth; got != want {
			return 0, fmt.Errorf("fig17: group %d reached %d nodes, want %d", b, got, want)
		}
	}
	return res.Time, nil
}

// String renders the overlap study.
func (f *Fig17Result) String() string {
	header := []string{"β", "Overlapped", "Serialized", "Speedup"}
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			fmt.Sprint(r.Beta),
			r.Overlapped.String(),
			r.Serialized.String(),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	return "Fig. 17: speedup vs β (overlapped PROPAGATE statements)\n" + table(header, rows)
}
