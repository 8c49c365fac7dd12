// Command snapbench runs the canonical propagation-phase host benchmarks
// (the same workloads as BenchmarkPropagatePhase and
// BenchmarkEngineThroughput in bench_test.go) and writes the results as
// machine-readable JSON. The checked-in BENCH_PROPAGATE.json at the repo
// root is regenerated with:
//
//	go run ./cmd/snapbench -o BENCH_PROPAGATE.json
//
// With -engine-o it additionally runs the sharded query-serving suite
// (the BenchmarkEngineSharded workloads: 1/4/16 replicas, hot / cold /
// mixed temperature) and writes BENCH_ENGINE.json:
//
//	go run ./cmd/snapbench -engine-o BENCH_ENGINE.json
//
// With -kernel-o it runs the single-store marker-kernel and CSR
// relation-arena micro-benchmarks (boolean sweeps, SET/CLEAR fills,
// sparse and dense frontier scans, the packed link-slab walk) and
// writes BENCH_KERNEL.json:
//
//	go run ./cmd/snapbench -kernel-o BENCH_KERNEL.json
//
// With -partition-o it scores every partitioning strategy (and the
// refined strategy with hop-aware placement) on the 6K-node MUC-4-style
// knowledge base — link cut ratio, weighted hop cost, partition time,
// and machine bring-up time — and writes BENCH_PARTITION.json:
//
//	go run ./cmd/snapbench -partition-o BENCH_PARTITION.json
//
// With -opt-o it runs the program-optimizer suite (the same cold query
// pool served with the compile-tier optimizer off and at full level)
// and writes BENCH_OPT.json:
//
//	go run ./cmd/snapbench -opt-o BENCH_OPT.json
//
// With -write-o it runs the online write-path suite on the 16K-node
// MUC-4-style knowledge base at the paper's 16-cluster, 16-replica
// configuration: per-replica incremental delta replay against a full
// LoadKB re-download for a <=1% topology mutation, and read latency
// under sustained write churn against quiet serving, and writes
// BENCH_WRITE.json:
//
//	go run ./cmd/snapbench -write-o BENCH_WRITE.json
//
// -fence-hot-allocs N makes the run fail if the steady-state hot
// serving path (16 replicas, result-cache hits) allocates more than N
// times per query — the CI regression fence for the serving layer.
// -fence-kernel-allocs N likewise fails the run if any store kernel
// allocates more than N times per op (the kernels are expected to stay
// at exactly zero). -fence-partition-cut F fails the run unless the
// refined strategy's cut ratio undercuts semantic's by at least the
// fraction F (CI uses 0.30). -fence-opt-speedup F fails the run unless
// optimized (O2) cold serving delivers at least F times the unoptimized
// (O0) cold throughput (CI uses 1.1). -fence-delta-speedup F fails the
// run unless per-replica delta replay of the <=1% mutation batch is at
// least F times faster than the full LoadKB re-download it replaces (CI
// uses 20); the write suite also fails unconditionally if any read
// errors under write churn.
//
// See docs/PERF.md for the measurement methodology and the history of
// what these numbers looked like before the host hot-path overhaul.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snap1/internal/engine"
	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/partition"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// Result is one benchmark's outcome in the JSON report.
type Result struct {
	Name          string  `json:"name"`
	Iterations    int     `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	TasksPerOp    float64 `json:"tasks_per_phase,omitempty"`
	NsPerTask     float64 `json:"ns_per_task,omitempty"`
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
	VTimeMicros   float64 `json:"vtime_us,omitempty"`
	MeanOverlap   float64 `json:"mean_overlap,omitempty"`
}

// Report is the full BENCH_PROPAGATE.json document.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workload   string   `json:"workload"`
	Results    []Result `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("snapbench: ")
	testing.Init() // registers test.* flags so benchtime is settable
	out := flag.String("o", "", "write the JSON report to this file (default: stdout)")
	engineOut := flag.String("engine-o", "", "also run the sharded engine suite and write its JSON report here")
	kernelOut := flag.String("kernel-o", "", "also run the store-kernel suite and write its JSON report here")
	partitionOut := flag.String("partition-o", "", "also score the partition strategies and write their JSON report here")
	optOut := flag.String("opt-o", "", "also run the program-optimizer suite and write its JSON report here")
	writeOut := flag.String("write-o", "", "also run the online write-path suite and write its JSON report here")
	fence := flag.Int64("fence-hot-allocs", -1, "fail if the hot serving path at 16 replicas exceeds this allocs/query (-1 disables)")
	kernelFence := flag.Int64("fence-kernel-allocs", -1, "fail if any store kernel exceeds this allocs/op (-1 disables)")
	partitionFence := flag.Float64("fence-partition-cut", -1, "fail unless refined beats semantic's cut ratio by at least this fraction (-1 disables)")
	optFence := flag.Float64("fence-opt-speedup", -1, "fail unless optimized (O2) cold serving beats unoptimized (O0) cold throughput by at least this factor (-1 disables)")
	deltaFence := flag.Float64("fence-delta-speedup", -1, "fail unless per-replica delta replay beats the full LoadKB re-download by at least this factor (-1 disables)")
	benchtime := flag.Duration("benchtime", 0, "minimum run time per benchmark (0 = testing default of 1s)")
	flag.Parse()
	if *benchtime > 0 {
		// testing.Benchmark honours the -test.benchtime flag.
		if err := flag.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
			log.Fatal(err)
		}
	}

	// The propagate report keeps its historical default (stdout); it is
	// skipped only when the run asks solely for the engine, kernel, or
	// partition report.
	if *out != "" || (*engineOut == "" && *kernelOut == "" && *partitionOut == "" && *optOut == "" && *writeOut == "") {
		rep := Report{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workload:   "chains: alpha=256 depth-10, PaperConfig (16 clusters), PATH/add propagation; dense: 6K-node MUC-4-style KB, SET-MARKER frontier (every node a source); dense_refined: same KB under the refined partition + hop-aware placement",
		}
		for _, eng := range []struct {
			name string
			det  bool
		}{{"propagate_phase/concurrent", false}, {"propagate_phase/lockstep", true}} {
			suffix := eng.name[len("propagate_phase/"):]
			rep.Results = append(rep.Results, toResult(eng.name, testing.Benchmark(phaseBench(eng.det))))
			rep.Results = append(rep.Results, toResult("propagate_phase/dense/"+suffix, testing.Benchmark(densePhaseBench(eng.det))))
			rep.Results = append(rep.Results, toResult("propagate_phase/dense_refined/"+suffix,
				testing.Benchmark(densePhaseBench(eng.det,
					machine.WithPartitionFunc(partition.Refined), machine.WithPlacement(true)))))
		}
		rep.Results = append(rep.Results, toResult("engine_throughput", testing.Benchmark(throughputBench)))
		writeReport(rep, *out)
	}

	if *partitionOut != "" || *partitionFence >= 0 {
		runPartitionSuite(*partitionOut, *partitionFence)
	}

	if *optOut != "" || *optFence >= 0 {
		runOptSuite(*optOut, *optFence)
	}

	if *writeOut != "" || *deltaFence >= 0 {
		runWriteSuite(*writeOut, *deltaFence)
	}

	if *kernelOut != "" {
		rep := Report{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workload:   "single 1024-node cluster store: 64-bit marker kernels over the status slab, frontier scans sparse (1/97 set) and dense (all set), CSR relation-arena walk (4 links/node)",
		}
		var worst int64
		for _, k := range kernelBenches() {
			br := testing.Benchmark(k.fn)
			rep.Results = append(rep.Results, toResult("store_kernel/"+k.name, br))
			if a := br.AllocsPerOp(); a > worst {
				worst = a
			}
		}
		writeReport(rep, *kernelOut)
		if *kernelFence >= 0 && worst > *kernelFence {
			log.Fatalf("alloc fence: a store kernel allocates %d/op, fence is %d", worst, *kernelFence)
		}
	}

	if *engineOut != "" {
		rep := Report{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workload:   "alpha=128 depth-8 chains, PaperConfig (16 clusters), sharded dispatch; hot=result-cache hits, cold=256 distinct uncached queries, mixed=50% hot + 1024-query sweep over a 128-entry cache",
		}
		w := kbgen.Chains(1, 128, 8, 1)
		var hotAllocs int64 = -1
		for _, replicas := range []int{1, 4, 16} {
			for _, mix := range []string{"hot", "cold", "mixed"} {
				br := testing.Benchmark(engineShardedBench(w, replicas, mix))
				r := toResult(fmt.Sprintf("engine_sharded/r=%d/%s", replicas, mix), br)
				r.QueriesPerSec = float64(br.N) / br.T.Seconds()
				rep.Results = append(rep.Results, r)
				if replicas == 16 && mix == "hot" {
					hotAllocs = br.AllocsPerOp()
				}
			}
		}
		writeReport(rep, *engineOut)
		if *fence >= 0 && hotAllocs > *fence {
			log.Fatalf("alloc fence: hot serving path at 16 replicas allocates %d/query, fence is %d", hotAllocs, *fence)
		}
	}
}

func writeReport(rep Report, path string) {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if path == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func toResult(name string, br testing.BenchmarkResult) Result {
	r := Result{
		Name:        name,
		Iterations:  br.N,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
	if v, ok := br.Extra["tasks/phase"]; ok {
		r.TasksPerOp = v
	}
	if v, ok := br.Extra["ns/task"]; ok {
		r.NsPerTask = v
	}
	if v, ok := br.Extra["vtime_us"]; ok {
		r.VTimeMicros = v
	}
	return r
}

// phaseBench mirrors BenchmarkPropagatePhase: one overlap-window flush of
// α=256 depth-10 chains on the paper's 16-cluster array, machine reused
// across iterations so the steady state is measured.
func phaseBench(det bool) func(b *testing.B) {
	return func(b *testing.B) {
		w := kbgen.Chains(1, 256, 10, 1)
		w.KB.Preprocess()
		p := isa.NewProgram()
		p.SearchColor(w.Seeds[0], 0, 0)
		p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd)
		p.Barrier()
		phaseRun(b, det, w.KB, p)
	}
}

// densePhaseBench mirrors BenchmarkPropagatePhase/dense: a MUC-4-style
// generated knowledge base with SET-MARKER making every node a source,
// so the frontier scan is fully dense. Extra machine options select the
// partition/placement variant.
func densePhaseBench(det bool, opts ...machine.Option) func(b *testing.B) {
	return func(b *testing.B) {
		g, err := kbgen.Generate(kbgen.Params{Nodes: 6000, Seed: 42, WithDomain: true})
		if err != nil {
			b.Fatal(err)
		}
		g.KB.Preprocess()
		p := isa.NewProgram()
		p.Set(0, 0)
		p.Propagate(0, 1, rules.Path(g.Rel.IsA), semnet.FuncAdd)
		p.Barrier()
		phaseRun(b, det, g.KB, p, opts...)
	}
}

func phaseRun(b *testing.B, det bool, kb *semnet.KB, p *isa.Program, opts ...machine.Option) {
	cfg := machine.PaperConfig()
	cfg.Deterministic = det
	cfg = machine.ApplyOptions(cfg, opts...)
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
	run()
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

// PartitionResult is one strategy's score in BENCH_PARTITION.json.
type PartitionResult struct {
	Strategy    string  `json:"strategy"`
	CutRatio    float64 `json:"cut_ratio"`
	HopCost     float64 `json:"hop_cost"`
	PartitionMs float64 `json:"partition_ms"`
	BringUpMs   float64 `json:"bringup_ms"`
}

// PartitionReport is the full BENCH_PARTITION.json document.
type PartitionReport struct {
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workload   string            `json:"workload"`
	Results    []PartitionResult `json:"results"`
}

// runPartitionSuite scores every strategy on the canonical 6K-node
// MUC-4-style knowledge base at the paper's 16-cluster configuration:
// link cut ratio, weighted hop cost (mean hops per link), partitioning
// wall time, and full machine bring-up (New + LoadKB) wall time. The
// "refined+place" row is the refined partition followed by the
// hop-aware placement stage — identical cut, lower hop cost.
func runPartitionSuite(path string, fenceFrac float64) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: 6000, Seed: 42, WithDomain: true})
	if err != nil {
		log.Fatal(err)
	}
	kb := g.KB
	kb.Preprocess()
	cfg := machine.PaperConfig()
	if need := (kb.NumNodes() + cfg.Clusters - 1) / cfg.Clusters; need > cfg.NodesPerCluster {
		cfg.NodesPerCluster = need
	}

	rep := PartitionReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: fmt.Sprintf("6K-node MUC-4-style KB (%d nodes, %d links post-preprocess), %d clusters x %d capacity",
			kb.NumNodes(), kb.NumLinks(), cfg.Clusters, cfg.NodesPerCluster),
	}

	strategies := []struct {
		name  string
		fn    partition.Func
		place bool
	}{
		{"sequential", partition.Sequential, false},
		{"round-robin", partition.RoundRobin, false},
		{"semantic", partition.Semantic, false},
		{"refined", partition.Refined, false},
		{"refined+place", partition.Refined, true},
	}
	cuts := map[string]float64{}
	for _, s := range strategies {
		// Partition time: best of a few runs, so the score is the
		// strategy's cost rather than a scheduling hiccup.
		var a partition.Assignment
		partNs := int64(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			a, err = s.fn(kb, cfg.Clusters, cfg.NodesPerCluster)
			if err != nil {
				log.Fatal(err)
			}
			if s.place {
				a = partition.Place(kb, a, cfg.Clusters)
			}
			if d := time.Since(start).Nanoseconds(); d < partNs {
				partNs = d
			}
		}

		bringNs := int64(1 << 62)
		for i := 0; i < 3; i++ {
			mcfg := cfg
			mcfg.Partition = s.fn
			mcfg.Placement = s.place
			start := time.Now()
			m, err := machine.New(mcfg)
			if err != nil {
				log.Fatal(err)
			}
			if err := m.LoadKB(kb); err != nil {
				log.Fatal(err)
			}
			if d := time.Since(start).Nanoseconds(); d < bringNs {
				bringNs = d
			}
			m.Close()
		}

		cut := partition.CutRatio(kb, a)
		cuts[s.name] = cut
		rep.Results = append(rep.Results, PartitionResult{
			Strategy:    s.name,
			CutRatio:    cut,
			HopCost:     partition.HopCost(kb, a, cfg.Clusters),
			PartitionMs: float64(partNs) / 1e6,
			BringUpMs:   float64(bringNs) / 1e6,
		})
	}

	if path != "" {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if fenceFrac >= 0 {
		sem, ref := cuts["semantic"], cuts["refined"]
		if ref > sem*(1-fenceFrac) {
			log.Fatalf("partition fence: refined cut ratio %.4f does not beat semantic %.4f by %.0f%%",
				ref, sem, fenceFrac*100)
		}
	}
}

// runOptSuite measures the compile-tier program optimizer end to end
// through the engine: one cold query pool served with optimization off
// (O0: queries run exactly as written) and at full level (O2: peephole
// folding, dead-plane elimination, marker-plane renaming, overlap
// scheduling). The pool's programs carry the redundancy a defensive
// query frontend emits — a SET/FUNC scratch initialization, a
// diagnostic propagation sweep nothing ever collects, and a
// snapshot/clear/re-sweep sequence that reuses its sweep plane — so the
// comparison spans every pass: dead code the machine would otherwise
// execute faithfully, and a false WAR/WAW dependence whose removal lets
// the scheduler pair the two live sweeps in one PU overlap window. Each
// row also reports the workload's mean virtual time (vtime_us) and the
// program's mean β-overlap degree (mean_overlap, O2 measured on the
// rewrite). The fence fails the run unless O2 cold throughput is at
// least the given factor times O0's and the mean overlap degree
// strictly increased.
func runOptSuite(path string, fence float64) {
	w := kbgen.Chains(1, 128, 8, 1)
	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   "alpha=128 depth-8 chains, PaperConfig (16 clusters), 1 replica, cold serving (result cache off) of 256 distinct queries; each query carries a SET/FUNC scratch pair, a dead diagnostic PATH sweep, and a snapshot/clear/re-sweep plane reuse; O0 = optimizer off, O2 = full pass pipeline",
	}
	sample := optProgram(w, 0)
	overlap := map[int]float64{
		0: meanOverlap(sample),
		2: meanOverlap(isa.Optimize(sample, isa.OptConfig{Level: isa.OptFull}).Program),
	}
	qps := map[int]float64{}
	for _, lvl := range []int{0, 2} {
		br := testing.Benchmark(optBench(w, lvl))
		r := toResult(fmt.Sprintf("opt_serving/cold/O%d", lvl), br)
		r.QueriesPerSec = float64(br.N) / br.T.Seconds()
		r.MeanOverlap = overlap[lvl]
		qps[lvl] = r.QueriesPerSec
		rep.Results = append(rep.Results, r)
	}
	writeReport(rep, path)
	if fence >= 0 {
		if qps[2] < qps[0]*fence {
			log.Fatalf("opt fence: O2 cold throughput %.0f q/s is only %.2fx the O0 %.0f q/s, fence is %.2fx",
				qps[2], qps[2]/qps[0], qps[0], fence)
		}
		if overlap[2] <= overlap[0] {
			log.Fatalf("opt fence: mean overlap degree did not increase (O0 %.3f, O2 %.3f)",
				overlap[0], overlap[2])
		}
	}
}

// meanOverlap reports the program's mean β-overlap degree: the average,
// over all instructions, of how many immediately preceding instructions
// each can share the PU's issue window with.
func meanOverlap(p *isa.Program) float64 {
	sum := 0
	for _, d := range isa.OverlapDegrees(p) {
		sum += d
	}
	return float64(sum) / float64(p.Len())
}

// optBench builds one optimizer-suite benchmark: sequential cold
// serving of a 256-query pool on a single replica at the given
// optimizer level.
func optBench(w *kbgen.Workload, lvl int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := machine.PaperConfig()
		cfg.Deterministic = true
		e, err := engine.New(w.KB,
			engine.WithReplicas(1), engine.WithMachineConfig(cfg),
			engine.WithQueueCap(4096), engine.WithResultCache(0),
			engine.WithOptLevel(lvl))
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()

		const poolSize = 256
		pool := make([]*isa.Program, poolSize)
		for i := range pool {
			pool[i] = optProgram(w, i)
		}
		// One pass over the pool up front: pool bring-up and the one-time
		// optimization of each program happen off the clock, so the
		// measured loop is pure cold serving.
		for _, p := range pool {
			if _, err := e.Submit(context.Background(), p); err != nil {
				b.Fatal(err)
			}
		}

		var vtime timing.Time
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Submit(context.Background(), pool[i%poolSize])
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Collected(0)) == 0 {
				b.Fatal("empty collection")
			}
			vtime += res.Time
		}
		b.StopTimer()
		b.ReportMetric(timing.Time(float64(vtime)/float64(b.N)).Microseconds(), "vtime_us")
	}
}

// optProgram builds one pool member for the optimizer suite: the
// canonical chain query wrapped in the redundancy a defensive frontend
// emits — a scratch plane initialized with a SET/FUNC pair, a
// diagnostic PATH sweep onto it that nothing ever collects, and a
// snapshot/clear/re-sweep sequence that reuses the sweep plane. The
// reuse is a false WAR/WAW dependence: once renaming moves the second
// sweep onto its own plane, the scheduler can pair it with the first in
// one PU overlap window. The variant value makes members hash
// distinctly at identical execution cost.
func optProgram(w *kbgen.Workload, variant int) *isa.Program {
	p := isa.NewProgram()
	p.Set(3, 0)
	p.Func(3, semnet.FuncAdd, 1)
	p.SearchColor(w.Seeds[0], 0, float32(variant))
	p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd)
	p.Propagate(0, 3, rules.Path(w.Rel), semnet.FuncAdd) // diagnostic sweep: dead
	p.Or(1, 1, 2, semnet.FuncAdd)                        // snapshot the first sweep
	p.ClearM(1)                                          // reuse the sweep plane
	p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd) // re-derivation sweep
	p.Barrier()
	p.CollectNode(2)
	p.CollectNode(1)
	return p
}

// WriteReport is the full BENCH_WRITE.json document: the online
// write-path suite's two measurements — per-replica incremental delta
// replay against the full LoadKB re-download it replaces, and read
// latency under sustained write churn against quiet serving.
type WriteReport struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`

	// Delta replay vs full re-download, one serving replica.
	DeltaRecords int     `json:"delta_records"`  // mutation batch size (<=1% of nodes)
	DeltaApplyUs float64 `json:"delta_apply_us"` // replaying one batch in place
	FullReloadUs float64 `json:"full_reload_us"` // full LoadKB re-download
	DeltaSpeedup float64 `json:"delta_speedup"`

	// Read latency under write churn, 16-replica serving.
	ReadsPerPhase    int     `json:"reads_per_phase"`
	QuietP50Us       float64 `json:"quiet_p50_us"`
	QuietP99Us       float64 `json:"quiet_p99_us"`
	QuietReadsPerSec float64 `json:"quiet_reads_per_sec"`
	ChurnP50Us       float64 `json:"churn_p50_us"`
	ChurnP99Us       float64 `json:"churn_p99_us"`
	ChurnReadsPerSec float64 `json:"churn_reads_per_sec"`
	P99Ratio         float64 `json:"p99_ratio"`
	FailedReads      int     `json:"failed_reads"`
	Writes           uint64  `json:"writes"`
	WriteCommits     uint64  `json:"write_commits"`
	DeltasApplied    uint64  `json:"deltas_applied"`
	FullReloads      uint64  `json:"full_reloads"`
}

// runWriteSuite measures the online write path on the 16K-node
// MUC-4-style knowledge base at the paper's 16-cluster configuration.
//
// Part one is the tentpole economics: a <=1% topology mutation batch
// (one percent of the nodes each gaining or losing a link) is brought
// onto a loaded replica two ways — replaying the KB's delta records in
// place (what syncReplica does at a batch boundary) against a full
// LoadKB re-download (what every write used to cost every replica) —
// and the fence fails the run unless replay wins by the given factor.
//
// Part two serves 16 replicas with the result cache off and compares
// read latency quantiles over an identical read set, quiet versus under
// sustained SubmitWrite churn from background writers. Reads never
// block on writes by construction, so the suite fails unconditionally
// if any read errors under churn; the p50/p99 quantiles and the ratio
// land in the report for the record.
func runWriteSuite(path string, fence float64) {
	const nodes = 16000
	g, err := kbgen.Generate(kbgen.Params{Nodes: nodes, Seed: 42, WithDomain: true})
	if err != nil {
		log.Fatal(err)
	}
	kb := g.KB
	kb.EnableDeltaLog(0)
	kb.Preprocess()
	cfg := machine.PaperConfig()
	cfg.Deterministic = true
	if need := (kb.NumNodes() + cfg.Clusters - 1) / cfg.Clusters; need > cfg.NodesPerCluster {
		cfg.NodesPerCluster = need
	}
	n := kb.NumNodes()
	batch := nodes / 100 // the <=1% mutation batch

	rep := WriteReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: fmt.Sprintf("16K-node MUC-4-style KB (%d nodes post-preprocess), PaperConfig (%d clusters); delta = %d-link mutation batch replayed on one replica vs full LoadKB; churn = 16-replica serving, result cache off, reads measured quiet then under background SubmitWrite link toggles",
			n, cfg.Clusters, batch),
		DeltaRecords:  batch,
		ReadsPerPhase: 12000,
	}

	// --- Part 1: delta replay vs full re-download, one replica. ---
	m, err := machine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		log.Fatal(err)
	}
	// Mutation sources need slot headroom: the array cannot split
	// subnodes at runtime, so a link added to a node whose 16 relation
	// slots are full is a conflict the write path refuses. The bench
	// targets what the write path would admit.
	var cand []semnet.NodeID
	for id := 0; id < n; id++ {
		nd, err := kb.Node(semnet.NodeID(id))
		if err != nil {
			log.Fatal(err)
		}
		if len(nd.Out) <= semnet.RelationSlots-2 {
			cand = append(cand, semnet.NodeID(id))
		}
	}
	if len(cand) < batch {
		log.Fatalf("write suite: only %d nodes with relation-slot headroom, need %d", len(cand), batch)
	}
	rel := kb.Relation("bench-write")
	pairAt := func(k, i int) (semnet.NodeID, semnet.NodeID) {
		return cand[(k*batch+i)%len(cand)], semnet.NodeID((k*batch + i*7 + 1) % n)
	}
	const rounds = 32 // even count: every added link is removed again
	var deltaNs int64
	for r := 0; r < rounds; r++ {
		from := m.KBGeneration()
		for i := 0; i < batch; i++ {
			a, b := pairAt(r/2, i)
			if r%2 == 0 {
				if err := kb.AddLink(a, rel, 1, b); err != nil {
					log.Fatal(err)
				}
			} else if !kb.RemoveLink(a, rel, b) {
				log.Fatalf("write suite: link %d->%d vanished before removal", a, b)
			}
		}
		to := kb.Generation()
		recs, ok := kb.DeltaRange(from, to)
		if !ok {
			log.Fatal("write suite: delta log truncated under one mutation batch")
		}
		start := time.Now()
		if err := m.ApplyDelta(recs, to); err != nil {
			log.Fatal(err)
		}
		deltaNs += time.Since(start).Nanoseconds()
	}
	m.Close()
	deltaPerOp := float64(deltaNs) / rounds

	// Full re-download: best of a few runs (the conservative comparison —
	// replay is scored on its mean, reload on its floor).
	m2, err := machine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	reloadNs := int64(1 << 62)
	for i := 0; i < 4; i++ {
		start := time.Now()
		if err := m2.LoadKB(kb); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(start).Nanoseconds(); i > 0 && d < reloadNs {
			reloadNs = d // first run warms; best of the rest
		}
	}
	m2.Close()

	rep.DeltaApplyUs = deltaPerOp / 1e3
	rep.FullReloadUs = float64(reloadNs) / 1e3
	rep.DeltaSpeedup = float64(reloadNs) / deltaPerOp

	// --- Part 2: read latency quiet vs under write churn, 16 replicas. ---
	e, err := engine.New(kb,
		engine.WithReplicas(16), engine.WithMachineConfig(cfg),
		engine.WithQueueCap(4096), engine.WithResultCache(0),
		engine.WithWrites(true))
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()

	readProg := func(variant int) *isa.Program {
		p := isa.NewProgram()
		p.SearchNode(g.Leaves[variant%len(g.Leaves)], 0, float32(variant))
		p.Propagate(0, 1, rules.Path(g.Rel.IsA), semnet.FuncAdd)
		p.Barrier()
		p.CollectNode(1)
		return p
	}
	// The collector stays off for both measured phases (and each starts
	// from a freshly collected heap): a GC cycle landing inside one
	// ~250ms phase but not the other would swamp the quantile it hits,
	// and the comparison targets write-path interference, not
	// GC-scheduling luck. Both phases get identical treatment, so the
	// ratio stays an honest churn-vs-quiet measure.
	oldGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(oldGC)

	// Open-loop measurement: each reader paces its submissions well
	// under serving capacity, so a latency sample is the engine's
	// response to that read alone — if reads never block on writes, the
	// churn quantiles match the quiet ones. (A closed-loop reader pool
	// instead couples every sample to total machine load: any slowdown
	// stretches the phase, admits more churn, and compounds — a
	// feedback measurement of the host, not of write blocking.)
	const workers = 4
	const readPace = 250 * time.Microsecond
	measure := func() (lat []float64, persec float64, failed int) {
		runtime.GC()
		total := rep.ReadsPerPhase
		lat = make([]float64, total)
		var fail atomic.Int64
		var wg sync.WaitGroup
		per := total / workers
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					time.Sleep(readPace)
					p := readProg(w*per + i)
					t0 := time.Now()
					_, err := e.Submit(context.Background(), p)
					lat[w*per+i] = float64(time.Since(t0).Nanoseconds()) / 1e3
					if err != nil {
						fail.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		sort.Float64s(lat)
		return lat, float64(total) / time.Since(start).Seconds(), int(fail.Load())
	}

	// Warm the pool, then the quiet baseline.
	for i := 0; i < workers; i++ {
		if _, err := e.Submit(context.Background(), readProg(i)); err != nil {
			log.Fatal(err)
		}
	}
	quiet, quietQPS, quietFail := measure()

	// Background write churn: each writer toggles its own link pairs
	// through SubmitWrite, so every commit publishes a new epoch and
	// every serving replica pays a delta replay at its next boundary.
	// Writers are paced to a few hundred mutations per second — online
	// KB maintenance traffic, orders of magnitude rarer than queries.
	// An unthrottled tight loop instead measures CPU starvation, and a
	// commit every serving round splinters rounds into per-generation
	// fusion cohorts, measuring fusion loss rather than write blocking.
	const writePace = 20 * time.Millisecond
	stop := make(chan struct{})
	var writerWg sync.WaitGroup
	var writeErrs atomic.Int64
	wrel := kb.Relation("churn-write")
	for w := 0; w < 2; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				case <-time.After(writePace):
				}
				pair := k / 2
				a := cand[(w*len(cand)/2+pair*3)%len(cand)]
				b := semnet.NodeID((w*nodes/2 + pair*11 + 5) % n)
				p := isa.NewProgram()
				if k%2 == 0 {
					p.Create(a, wrel, 1, b)
				} else {
					p.Delete(a, wrel, b)
				}
				if _, err := e.SubmitWrite(context.Background(), p); err != nil {
					writeErrs.Add(1)
				}
			}
		}(w)
	}
	// Let churn reach steady state off the clock: the first commits make
	// each replica pay its one-time copy-on-write table materialization
	// before the measured phase starts.
	for i := 0; i < 400; i++ {
		_, _ = e.Submit(context.Background(), readProg(i))
	}
	churn, churnQPS, churnFail := measure()
	close(stop)
	writerWg.Wait()
	st := e.Stats()

	pct := func(sorted []float64, p float64) float64 {
		return sorted[int(p*float64(len(sorted)-1))]
	}
	rep.QuietP50Us, rep.QuietP99Us = pct(quiet, 0.50), pct(quiet, 0.99)
	rep.ChurnP50Us, rep.ChurnP99Us = pct(churn, 0.50), pct(churn, 0.99)
	rep.QuietReadsPerSec, rep.ChurnReadsPerSec = quietQPS, churnQPS
	rep.P99Ratio = rep.ChurnP99Us / rep.QuietP99Us
	rep.FailedReads = quietFail + churnFail
	rep.Writes = st.Writes
	rep.WriteCommits = st.WriteCommits
	rep.DeltasApplied = st.DeltasApplied
	rep.FullReloads = st.FullReloads

	if path != "" {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if rep.FailedReads > 0 {
		log.Fatalf("write suite: %d read(s) failed (%d quiet, %d under churn); reads must never fail under write churn",
			rep.FailedReads, quietFail, churnFail)
	}
	if n := writeErrs.Load(); n > 0 {
		log.Fatalf("write suite: %d background write(s) failed", n)
	}
	if fence >= 0 && rep.DeltaSpeedup < fence {
		log.Fatalf("delta fence: replaying the %d-record batch takes %.0fus vs %.0fus full reload — only %.1fx, fence is %.1fx",
			batch, rep.DeltaApplyUs, rep.FullReloadUs, rep.DeltaSpeedup, fence)
	}
}

// kernelBench is one entry of the store-kernel suite.
type kernelBench struct {
	name string
	fn   func(b *testing.B)
}

// kernelStore builds the canonical 1024-node store the kernel suite runs
// on: marker 0 set at every third node, marker 1 at every second, binary
// marker 0 dense (every node), binary marker 1 sparse (every 97th), and
// four relation links per node in the CSR arena.
func kernelStore(b *testing.B) *semnet.Store {
	b.Helper()
	const n = 1024
	s := semnet.NewStore(n)
	links := make([]semnet.Link, 4)
	for i := 0; i < n; i++ {
		if _, err := s.AddNode(semnet.NodeID(i), 0, semnet.FuncNop); err != nil {
			b.Fatal(err)
		}
		if i%3 == 0 {
			s.Set(i, 0)
		}
		if i%2 == 0 {
			s.Set(i, 1)
		}
		s.Set(i, semnet.Binary(0))
		if i%97 == 0 {
			s.Set(i, semnet.Binary(1))
		}
		for j := range links {
			links[j] = semnet.Link{Rel: semnet.RelType(j), Weight: 1, To: semnet.NodeID((i + j + 1) % n)}
		}
		if err := s.SetLinks(i, links); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// kernelBenches returns the store-kernel suite tracked in
// BENCH_KERNEL.json. Every kernel must stay allocation-free: the suite
// runs under -fence-kernel-allocs 0 in CI.
func kernelBenches() []kernelBench {
	count := 0
	return []kernelBench{
		{"and", func(b *testing.B) {
			s := kernelStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.And(0, 1, 2, semnet.FuncNop)
			}
		}},
		{"or", func(b *testing.B) {
			s := kernelStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Or(0, 1, 2, semnet.FuncNop)
			}
		}},
		{"set_all", func(b *testing.B) {
			s := kernelStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SetAll(3, 1)
			}
		}},
		{"clear_all", func(b *testing.B) {
			s := kernelStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ClearAll(3)
			}
		}},
		{"foreach_set/sparse", func(b *testing.B) {
			s := kernelStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ForEachSet(semnet.Binary(1), func(local int) { count += local })
			}
		}},
		{"foreach_set/dense", func(b *testing.B) {
			s := kernelStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ForEachSet(semnet.Binary(0), func(local int) { count += local })
			}
		}},
		{"count_set", func(b *testing.B) {
			s := kernelStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count += s.CountSet(0)
			}
		}},
		{"csr_scan", func(b *testing.B) {
			s := kernelStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for local := 0; local < s.NumNodes(); local++ {
					for _, l := range s.Links(local) {
						count += int(l.To)
					}
				}
			}
		}},
	}
}

// engineShardedBench mirrors BenchmarkEngineSharded: parallel submitters
// over a sharded work-stealing pool at the given size, with the workload
// temperature selecting how much of the traffic the result cache can
// serve (hot: all of it; cold: none — caching off; mixed: half).
func engineShardedBench(w *kbgen.Workload, replicas int, mix string) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := machine.PaperConfig()
		cfg.Deterministic = true
		opts := []engine.Option{engine.WithReplicas(replicas), engine.WithMachineConfig(cfg), engine.WithQueueCap(4096)}
		poolSize := 0
		switch mix {
		case "cold":
			opts = append(opts, engine.WithResultCache(0))
			poolSize = 256
		case "mixed":
			opts = append(opts, engine.WithResultCache(128))
			poolSize = 1024
		}
		e, err := engine.New(w.KB, opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()

		hot := shardedProgram(w, -1)
		pool := make([]*isa.Program, poolSize)
		for i := range pool {
			pool[i] = shardedProgram(w, i)
		}
		if _, err := e.Submit(context.Background(), hot); err != nil {
			b.Fatal(err)
		}

		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				p := hot
				if poolSize > 0 {
					n := next.Add(1)
					if mix == "cold" || n%2 == 0 {
						p = pool[int(n)%poolSize]
					}
				}
				res, err := e.Submit(context.Background(), p)
				if err != nil {
					b.Error(err)
					return
				}
				if len(res.Collected(0)) == 0 {
					b.Error("empty collection")
					return
				}
			}
		})
	}
}

// shardedProgram builds the canonical chain-propagation query with a
// distinguishing initial marker value: variants hash differently but
// cost the same to execute.
func shardedProgram(w *kbgen.Workload, variant int) *isa.Program {
	p := isa.NewProgram()
	p.SearchColor(w.Seeds[0], 0, float32(variant))
	p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd)
	p.Barrier()
	p.CollectNode(1)
	return p
}

// throughputBench mirrors BenchmarkEngineThroughput: parallel submitters
// over a pooled replica set.
func throughputBench(b *testing.B) {
	w := kbgen.Chains(1, 128, 8, 1)
	cfg := machine.PaperConfig()
	cfg.Deterministic = true
	e, err := engine.New(w.KB, engine.WithReplicas(4), engine.WithMachineConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	p := isa.NewProgram()
	p.SearchColor(w.Seeds[0], 0, 0)
	p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd)
	p.Barrier()
	p.CollectNode(1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := e.Submit(context.Background(), p)
			if err != nil {
				b.Error(err)
				return
			}
			if len(res.Collected(0)) == 0 {
				b.Error("empty collection")
				return
			}
		}
	})
}
