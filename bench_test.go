// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus micro-benchmarks of the simulator's hot
// machinery. Each experiment benchmark reports the headline simulated
// quantity as a custom metric so `go test -bench` output documents the
// reproduced result alongside host cost.
package snap1_test

import (
	"testing"

	"snap1/internal/experiments"
	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/nlu"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// BenchmarkTableIV regenerates the MUC-4 sentence parse-time table.
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIV()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var total float64
			for _, r := range res.Rows {
				total += (r.PPTime + r.MB9K).Milliseconds()
			}
			b.ReportMetric(total/float64(len(res.Rows)), "sim-ms/sentence")
		}
	}
}

// BenchmarkFig6Profile regenerates the instruction frequency/time profile.
func BenchmarkFig6Profile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			_, tf := res.PropagateShares()
			b.ReportMetric(tf*100, "propagate-time-%")
		}
	}
}

// BenchmarkFig8Traffic regenerates the per-barrier message distribution.
func BenchmarkFig8Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Mean, "msgs/barrier")
			b.ReportMetric(float64(res.Max), "burst-max")
		}
	}
}

// BenchmarkFig15Inheritance regenerates the SNAP-1 vs CM-2 scalability
// comparison.
func BenchmarkFig15Inheritance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res.Rows {
				if r.Nodes == 6400 {
					b.ReportMetric(float64(r.CM2)/float64(r.SNAP), "cm2/snap@6.4K")
				}
			}
		}
	}
}

// BenchmarkFig16AlphaSpeedup regenerates the α-parallelism speedup sweep.
func BenchmarkFig16AlphaSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.Speedup[1000], "speedup-a1000@72PE")
			b.ReportMetric(last.Speedup[100], "speedup-a100@72PE")
		}
	}
}

// BenchmarkFig17BetaSpeedup regenerates the β-overlap saturation sweep.
func BenchmarkFig17BetaSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig17()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res.Rows {
				if r.Beta == 16 {
					b.ReportMetric(r.Speedup, "speedup@beta16")
				}
			}
		}
	}
}

// BenchmarkFig18ClusterSweep regenerates the per-class time vs clusters
// profile.
func BenchmarkFig18ClusterSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig18(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PropagateRatio(), "prop-time-1v16")
		}
	}
}

// BenchmarkFig19KBSweep regenerates the per-class time vs KB-size profile.
func BenchmarkFig19KBSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig19(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Rows[len(res.Rows)-1].PropFrac*100, "propagate-%@16K")
		}
	}
}

// BenchmarkFig20PropCount regenerates the operation-count growth study.
func BenchmarkFig20PropCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig20(nil, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Rows[len(res.Rows)-1].Propagates), "propagates@16K")
		}
	}
}

// BenchmarkFig21Overheads regenerates the parallel-overhead component
// breakdown.
func BenchmarkFig21Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig21(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.Overhead.Collection.Microseconds(), "collect-us@32cl")
		}
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the simulator machinery itself.
// ---------------------------------------------------------------------

// BenchmarkPropagatePhase is the canonical host-cost benchmark of the
// marker-propagation hot path (a development tool; the figures a claim
// rests on are machine.ns_per_step_* in `go run ./benchmark`, see
// docs/PERF.md), measured on both execution engines with allocation
// reporting over two workload shapes:
//
//   - chains: one overlap-window flush of α=256 depth-10 chains on the
//     paper's 16-cluster array — a sparse frontier (one source per
//     chain), the original tracked workload;
//   - dense: a MUC-4-style generated knowledge base (kbgen.Generate
//     with the newswire micro-domain) with SET-MARKER making every node
//     a propagation source, so the source-scan frontier is fully dense
//     and the relation-table sweep dominates.
//
// The machine is reused across iterations, so the numbers reflect the
// steady state a query-serving pool runs in.
func BenchmarkPropagatePhase(b *testing.B) {
	for _, eng := range []struct {
		name string
		det  bool
	}{{"concurrent", false}, {"lockstep", true}} {
		b.Run(eng.name, func(b *testing.B) { benchPhaseChains(b, eng.det) })
		b.Run("dense/"+eng.name, func(b *testing.B) { benchPhaseDense(b, eng.det) })
	}
}

func benchPhaseChains(b *testing.B, det bool) {
	w := kbgen.Chains(1, 256, 10, 1)
	w.KB.Preprocess()
	p := isa.NewProgram()
	p.SearchColor(w.Seeds[0], 0, 0)
	p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd)
	p.Barrier()
	benchPhaseRun(b, det, w.KB, p)
}

func benchPhaseDense(b *testing.B, det bool) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: 6000, Seed: 42, WithDomain: true})
	if err != nil {
		b.Fatal(err)
	}
	g.KB.Preprocess()
	p := isa.NewProgram()
	p.Set(0, 0) // SET-MARKER: every node becomes a source
	p.Propagate(0, 1, rules.Path(g.Rel.IsA), semnet.FuncAdd)
	p.Barrier()
	benchPhaseRun(b, det, g.KB, p)
}

func benchPhaseRun(b *testing.B, det bool, kb *semnet.KB, p *isa.Program) {
	cfg := machine.PaperConfig()
	cfg.Deterministic = det
	if need := (kb.NumNodes() + cfg.Clusters - 1) / cfg.Clusters; need > cfg.NodesPerCluster {
		cfg.NodesPerCluster = need
	}
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	var tasks int64
	run := func() {
		m.ClearMarkers()
		res, err := m.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		tasks = res.Profile.PropSteps
	}
	run() // steady state: queues and scratch buffers grown
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if tasks > 0 {
		b.ReportMetric(float64(tasks), "tasks/phase")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tasks), "ns/task")
	}
}

// BenchmarkSIMDPhase measures what one broadcast data-parallel
// instruction costs the host on the sim-parse machine (PaperConfig,
// lockstep, the 12K-node network): the sweep of the machine-wide status
// table plus the sixteen per-cluster clock bookings. Each run is 240
// instructions of one kind cycling over 48 sparse operand markers and 16
// destinations, so the planes it touches are as cold as the parser's,
// not one line kept hot; ns/instr is the run divided by its length. The
// rows named -complex take their operands and destinations from the 64
// complex markers, so they also read and write value and origin
// registers: AND and OR combine the operands' values into the
// destination's, NOT and SET rewrite the destination's, and COLLECT-NODE
// reads a value and an origin per row.
//
// Its rows are noisy on a shared 2-CPU host: in 12 alternating rounds at
// GOMAXPROCS=1 of two binaries that differed only in the register
// layout, every row's parent IQR was about half its median, and the
// binary and row, which runs no register code, moved 1.35×. A row here
// tells a change apart only if it moves well beyond ±35 %; below that,
// read the end-to-end workloads (docs/PERF.md § "How a claim is made").
func BenchmarkSIMDPhase(b *testing.B) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: 12000, Seed: 42, WithDomain: true})
	if err != nil {
		b.Fatal(err)
	}
	g.KB.Preprocess()
	nodes := g.KB.NumNodes()
	m, err := machine.New(machine.ApplyOptions(machine.PaperConfig(), machine.WithCapacityFor(nodes)))
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadKB(g.KB); err != nil {
		b.Fatal(err)
	}
	const operands, dests, perRun = 48, 16, 240
	seed := isa.NewProgram() // eight nodes under each operand marker, binary and complex
	for i := 0; i < operands*8; i++ {
		node := semnet.NodeID(i * 1009 % nodes)
		seed.SearchNode(node, semnet.Binary(i%operands), 0)
		seed.SearchNode(node, semnet.MarkerID(i%operands), float32(1+i%5))
	}
	type kind struct {
		name    string
		complex bool
		add     func(p *isa.Program, src, next, dst semnet.MarkerID, i int)
	}
	and := func(p *isa.Program, src, next, dst semnet.MarkerID, _ int) { p.And(src, next, dst, semnet.FuncAdd) }
	or := func(p *isa.Program, src, next, dst semnet.MarkerID, _ int) { p.Or(src, next, dst, semnet.FuncMin) }
	not := func(p *isa.Program, src, _, dst semnet.MarkerID, _ int) { p.Not(src, dst, 0, isa.CondNone) }
	set := func(p *isa.Program, _, _, dst semnet.MarkerID, _ int) { p.Set(dst, 2) }
	collect := func(p *isa.Program, src, _, _ semnet.MarkerID, _ int) { p.CollectNode(src) }
	for _, k := range []kind{
		{"clear", false, func(p *isa.Program, _, _, dst semnet.MarkerID, _ int) { p.ClearM(dst) }},
		{"and", false, and},
		{"or", false, or},
		{"not", false, not},
		{"set", false, set},
		{"search-node", false, func(p *isa.Program, _, _, dst semnet.MarkerID, i int) {
			p.SearchNode(semnet.NodeID(i*4099%nodes), dst, 0)
		}},
		{"search-color", false, func(p *isa.Program, _, _, dst semnet.MarkerID, _ int) { p.SearchColor(g.Col.Root, dst, 0) }},
		{"collect-node", false, collect},
		{"and-complex", true, and},
		{"or-complex", true, or},
		{"not-complex", true, not},
		{"set-complex", true, set},
		{"collect-node-complex", true, collect},
	} {
		marker := semnet.Binary
		if k.complex {
			marker = func(i int) semnet.MarkerID { return semnet.MarkerID(i) }
		}
		b.Run(k.name, func(b *testing.B) {
			p := isa.NewProgram()
			for i := 0; i < perRun; i++ {
				k.add(p, marker(i%operands), marker((i+1)%operands), marker(operands+i%dests), i)
			}
			m.ClearMarkers()
			if _, err := m.Run(seed); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perRun, "ns/instr")
		})
	}
}

// BenchmarkSentenceParse measures one full two-stage sentence parse on the
// evaluation configuration.
func BenchmarkSentenceParse(b *testing.B) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: 5000, Seed: 42, WithDomain: true})
	if err != nil {
		b.Fatal(err)
	}
	g.KB.Preprocess()
	cfg := machine.PaperConfig()
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadKB(g.KB); err != nil {
		b.Fatal(err)
	}
	p := nlu.NewParser(m, g)
	s := g.Domain.Sentences[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Parse(s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Winner != s.Expect {
			b.Fatalf("parsed %q", res.Winner)
		}
	}
}

// BenchmarkKBGenerate measures synthetic knowledge-base generation.
func BenchmarkKBGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := kbgen.Generate(kbgen.Params{Nodes: 8000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadKB measures partitioning and table download of a 16K-node
// network into the full 32-cluster array.
func BenchmarkLoadKB(b *testing.B) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: 16000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	g.KB.Preprocess()
	cfg := machine.DefaultConfig()
	if need := (g.KB.NumNodes() + cfg.Clusters - 1) / cfg.Clusters; need > cfg.NodesPerCluster {
		cfg.NodesPerCluster = need
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadKB(g.KB); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation and extension benchmarks.
// ---------------------------------------------------------------------

// BenchmarkAblationPartition compares partitioning functions on the parse
// workload (the design choice behind semantically-based allocation).
func BenchmarkAblationPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPartition()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res.Rows {
				if r.Name == "semantic" {
					b.ReportMetric(r.Cut*100, "semantic-cut-%")
				}
			}
		}
	}
}

// BenchmarkAblationMUs sweeps marker units per cluster (the four-vs-five
// PE cluster design choice).
func BenchmarkAblationMUs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationMUs()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Rows[len(res.Rows)-1].Speedup, "speedup@4MU")
		}
	}
}

// BenchmarkSpeechDecode runs the PASS-style lattice understanding study.
func BenchmarkSpeechDecode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SpeechStudy()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MeanBeta, "mean-beta")
		}
	}
}

// BenchmarkScaleStudy grows the array with the knowledge base toward the
// paper's million-concept goal.
func BenchmarkScaleStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scale(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.ParseTime.Milliseconds(), "parse-sim-ms@256K")
		}
	}
}
