package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"snap1/internal/engine"
	"snap1/internal/trace"
)

// workloads, in running order, and why each exists. sim-parse charges
// CPU and peak memory to the benchmark's own process, so it runs first,
// before any other workload has grown the heap; -repeat gives every set
// a process of its own for the same reason.
var workloads = []struct{ name, why string }{
	{"sim-parse", "the paper's MUC-4 sentence parser on one bare lockstep machine: all machine/semnet/icn/barrier, no serving code; its simulated time is the fence that a host-speed change left the machine alone"},
	{"serve-cold", "4096 distinct queries swept cyclically over HTTP so every cache misses: decode, assemble, validate, optimize, queue, run and encode all execute on every request"},
	{"serve-hot", "64 warmed queries over HTTP, every one a compile-cache and result-cache hit: the machine does nothing, decode/encode and the engine hit path do everything"},
	{"serve-batch", "8 cold queries per /v1/query/batch request: the fusion path (Fuse, RunFused, Demux) and its planner, to be read beside serve-cold"},
	{"serve-churn", "reads on a hot and a cold pool with every 50th operation a committed KB write: epoch publish, result-cache sweep and replica delta replay beside reads"},
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}

// runConfig is what one run of one workload needs.
type runConfig struct {
	out           string
	seed          int64
	slices        int // measured intervals per run
	slice         time.Duration
	oneSetup      bool // set up once: the run does not report setup_s
	trace         bool // add the traced per-layer run
	coldSize      int
	traceRequests int
	// differentialReps is how often each program of a differential pair
	// runs; the pair's difference is taken between medians.
	differentialReps int
	snapd            string // path of the built binary
}

// clientConns is the number of closed-loop connections: as many as the
// host has cores, up to four, so client and server together can keep
// every core busy without queueing behind each other.
func clientConns() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Name string `json:"workload"`
	// KBSeed is the seed the network was generated from: the run's seed,
	// except where sim-parse had to step past an ill-posed network.
	KBSeed    int64              `json:"kb_seed"`
	SnapdArgv []string           `json:"snapd_argv,omitempty"`
	Noisy     bool               `json:"noisy"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Slices    []slice            `json:"slices"`

	// P99Percentile and P99Beyond qualify client.latency_p99_us: the
	// percentile actually reported and the samples beyond it.
	P99Percentile float64 `json:"latency_tail_percentile"`
	P99Beyond     int     `json:"latency_tail_samples_beyond"`

	spans []span
}

func (r *workloadResult) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func (r *workloadResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// loadMetrics fills in what the untraced load phase measures.
func (r *workloadResult) loadMetrics(m *measured, setupS, rssMB float64) {
	r.Noisy, r.Slices = m.noisy, m.slices
	r.Attempted += m.attempted
	r.Failed += m.failed
	r.P99Percentile, r.P99Beyond = m.p99Used, m.p99Beyond
	set := r.Metrics
	set["setup_s"] = setupS
	set["throughput_ops_s"] = m.throughput
	set["latency_p50_us"] = m.latencyP50
	set["cpu_us_per_op"] = m.cpuPerOp
	set["rss_peak_mb"] = rssMB
	set["vtime_us_per_op"] = m.vtimePerOp
	set["client.failed_share"] = ratio(float64(r.Failed), float64(r.Attempted))
	set["client.raw_throughput_ops_s"] = m.rawThroughput
	set["client.latency_p99_us"] = m.p99
	set["client.samples"] = float64(m.samples)
	set["client.read_p50_us"] = m.readP50
	set["client.write_p50_us"] = m.writeP50
	set["client.quiet_slices"] = float64(m.quiet)
	set["client.slice_spread"] = m.sliceSpread
	set["host.calib_ms_min"] = m.probeMin
	set["host.calib_ms_median"] = m.probeMedian
	set["host.slowness_median"] = m.slownessMedian
	set["host.stolen_share"] = m.stolenMean
	set["host.nproc"] = float64(runtime.NumCPU())
	set["host.gomaxprocs"] = float64(childGOMAXPROCS())
}

// statsMetrics turns the /v1/stats difference over the measured phase
// into the engine's own counters.
func statsMetrics(set map[string]float64, a, b engine.Stats) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	hist := func(x, y engine.LatencyHist) float64 {
		return ratio(d(x.TotalMicros, y.TotalMicros), d(x.Count, y.Count))
	}
	hits, misses := d(a.ResultHits, b.ResultHits), d(a.ResultMisses, b.ResultMisses)
	chits, cmisses := d(a.CompileHits, b.CompileHits), d(a.CompileMisses, b.CompileMisses)
	set["engine.result_hit_ratio"] = ratio(hits, hits+misses)
	set["engine.compile_hit_ratio"] = ratio(chits, chits+cmisses)
	set["engine.fused_share"] = ratio(d(a.FusedQueries, b.FusedQueries), d(a.Completed, b.Completed))
	set["engine.round_size_mean"] = ratio(d(a.BatchedQueries, b.BatchedQueries), d(a.Batches, b.Batches))
	set["engine.steal_share"] = ratio(d(a.StolenQueries, b.StolenQueries), d(a.BatchedQueries, b.BatchedQueries))
	set["engine.queue_wait_mean_us"] = hist(a.QueueWait, b.QueueWait)
	set["engine.run_mean_us"] = hist(a.Run, b.Run)
	set["engine.write_mean_us"] = hist(a.Write, b.Write)
	set["engine.deltas_per_commit"] = ratio(d(a.DeltaNodes, b.DeltaNodes), d(a.WriteCommits, b.WriteCommits))
	set["engine.full_reloads"] = d(a.FullReloads, b.FullReloads)
	set["engine.overloaded"] = d(a.Overloaded, b.Overloaded)
	set["engine.opt_fallbacks"] = d(a.OptFallbacks, b.OptFallbacks)
	set["engine.writes_share"] = ratio(d(a.Writes, b.Writes), d(a.Writes, b.Writes)+hits+misses)
}

// simulatedMetrics reports the exact, simulated-clock figures of prof,
// which merges the profiles of the runs that answered ops operations.
func simulatedMetrics(set map[string]float64, prof *trace.Profile, ops int) {
	n, elapsed := float64(ops), float64(prof.Elapsed)
	set["machine.steps_per_op"] = ratio(float64(prof.PropSteps), n)
	set["machine.vt_broadcast_share"] = ratio(float64(prof.Overhead.Broadcast), elapsed)
	set["machine.vt_comm_share"] = ratio(float64(prof.Overhead.Communication), elapsed)
	set["machine.vt_sync_share"] = ratio(float64(prof.Overhead.Synchronization), elapsed)
	set["machine.vt_collect_share"] = ratio(float64(prof.Overhead.Collection), elapsed)
	set["barrier.syncs_per_op"] = ratio(float64(len(prof.Barriers)), n)
	set["icn.messages_per_op"] = ratio(float64(prof.PropMessages), n)
	set["icn.hops_per_message"] = ratio(float64(prof.PropHops), float64(prof.PropMessages))
}

// buildMetrics reports the set-up layers and the differential unit costs
// measured on the oracle's network.
func buildMetrics(set map[string]float64, o *oracle, reps int) error {
	b := o.built
	set["kbgen.generate_ms"] = b.generateMS
	set["semnet.preprocess_ms"] = b.preprocessMS
	set["partition.assign_ms"] = b.assignMS
	set["partition.cut_ratio"] = b.cutRatio
	set["partition.hop_cost"] = b.hopCost
	set["machine.loadkb_ms"] = b.loadKBMS
	set["machine.clone_ms"] = b.cloneMS
	lock, conc, row, err := differential(o, reps)
	if err != nil {
		return err
	}
	set["machine.ns_per_step_lockstep"] = lock
	set["machine.ns_per_step_concurrent"] = conc
	set["machine.collect_ns_per_row"] = row
	return nil
}

func newResult(name string) *workloadResult {
	r := &workloadResult{Name: name, Metrics: make(map[string]float64)}
	// A layer the workload does not reach reports zero, not nothing.
	for _, d := range perLayer {
		r.Metrics[d.name] = 0
	}
	return r
}

// runSim is one run of sim-parse.
func runSim(cfg runConfig) (*workloadResult, error) {
	r := newResult("sim-parse")
	seed, err := wellPosedSeed(cfg.seed)
	if err != nil {
		return nil, err
	}
	r.KBSeed = seed
	p := newProber(1)
	t, setupS, err := timeSetup(p, cfg.oneSetup,
		func() (*simTarget, error) { return newSimTarget(seed) },
		func(t *simTarget) { t.m.Close() })
	if err != nil {
		return nil, err
	}
	defer t.m.Close()
	m, err := measure(t, cfg.slices, cfg.slice, p)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.loadMetrics(m, setupS, rss)
	if !cfg.trace {
		return r, nil
	}
	var prof trace.Profile
	for _, res := range t.last {
		prof.Merge(res.Profile)
	}
	simulatedMetrics(r.Metrics, &prof, len(t.last))
	ref, err := newOracle(seed)
	if err != nil {
		return nil, err
	}
	defer ref.m.Close()
	return r, buildMetrics(r.Metrics, ref, cfg.differentialReps)
}

// runServe is one run of a serve-* workload: a fresh snapd, driven over
// loopback HTTP.
func runServe(cfg runConfig, name string) (*workloadResult, error) {
	r := newResult(name)
	r.KBSeed = cfg.seed
	conns := clientConns()
	ref, err := newOracle(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer ref.m.Close()
	p := buildPools(ref.g, cfg.seed, conns, cfg.coldSize)
	want := &wanted{}
	if name != "serve-hot" {
		if want.cold, err = ref.answers(p.cold); err != nil {
			return nil, err
		}
	}
	if name == "serve-hot" || name == "serve-churn" {
		if want.hot, err = ref.answers(p.hot); err != nil {
			return nil, err
		}
	}

	logPath := filepath.Join(cfg.out, "snapd-"+name+".log")
	prober := newProber(conns)
	t, setupS, err := timeSetup(prober, cfg.oneSetup,
		func() (*serveTarget, error) {
			c, err := startSnapd(cfg.snapd, cfg.seed, conns, logPath)
			if err != nil {
				return nil, err
			}
			t := newServeTarget(name, c, conns, p, want)
			a, f := t.warm()
			r.Attempted += a
			r.Failed += f
			return t, nil
		},
		func(t *serveTarget) { t.c.stop() })
	if err != nil {
		return nil, err
	}
	defer t.c.stop()
	r.SnapdArgv = t.c.argv

	before, err := t.stats()
	if err != nil {
		return nil, err
	}
	m, err := measure(t, cfg.slices, cfg.slice, prober)
	if err != nil {
		return nil, err
	}
	after, err := t.stats()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(t.pid())
	if err != nil {
		return nil, err
	}
	r.loadMetrics(m, setupS, rss)
	statsMetrics(r.Metrics, before, after)
	if t.c.exited() {
		r.problem("snapd exited during the run (see %s)", logPath)
	}
	if !cfg.trace {
		return r, nil
	}
	return r, traceServe(cfg, r, t, ref)
}

// traceServe adds the traced per-layer run to r. t is the still-running
// snapd, asked for an untraced one-connection baseline and for the
// configuration probe; ref's machine, its answers given, now stands in
// for a replica.
func traceServe(cfg runConfig, r *workloadResult, t *serveTarget, ref *oracle) error {
	set := r.Metrics
	if err := buildMetrics(set, ref, cfg.differentialReps); err != nil {
		return err
	}
	solo, failed := t.soloPass(cfg.traceRequests)
	if failed > 0 {
		r.problem("%d requests of the one-connection pass failed", failed)
	}
	set["client.solo_p50_us"] = solo

	tr, err := newTracer(r.Name, cfg.seed, ref, t.p)
	if err != nil {
		return err
	}
	defer tr.close()

	// The same fresh text must cost the same simulated time on the
	// exec'd snapd and on the in-process engine, or the two are not
	// configured alike and the trace explains a different system.
	probeText := t.p.hot[0].q.render(variantBase - 1)
	resp, ok := t.post(0, "/v1/query", bodyOf(probeText))
	real, n := scanVirtual(resp)
	inproc, err := tr.probeVirtual(probeText)
	if err != nil {
		return err
	}
	if !ok || n != 1 || real != inproc {
		r.problem("configuration probe: snapd answered in %d ps, the traced engine in %d ps", real, inproc)
	}

	untraced, err := tr.run(cfg.traceRequests)
	if err != nil {
		return err
	}
	handleAllocs, submitAllocs, runAllocs, err := tr.allocs()
	if err != nil {
		return err
	}
	r.spans = tr.rec.spans

	med := func(name string, keep func(*span) bool) float64 {
		var xs []float64
		for i := range r.spans {
			if s := &r.spans[i]; s.Name == name && (keep == nil || keep(s)) {
				xs = append(xs, s.micros())
			}
		}
		return median(xs)
	}
	class := func(c string) func(*span) bool {
		return func(s *span) bool { return tr.class[s.ID] == c }
	}
	under := func(c string) func(*span) bool {
		return func(s *span) bool { return tr.class[s.Parent] == c }
	}
	self, overshoot := selfTimes(r.spans)
	var coldSelf []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == "engine.submit" && tr.class[s.ID] == classCold {
			coldSelf = append(coldSelf, self[s.ID])
		}
	}
	perReq := requestSelf(r.spans, self)
	layerMedian := func(layer string) float64 {
		xs := make([]float64, len(perReq))
		for i, m := range perReq {
			xs[i] = m[layer]
		}
		return median(xs)
	}

	set["transport.self_us"] = layerMedian("transport")
	set["server.handle_us"] = med("server.handle", nil)
	set["server.self_us"] = layerMedian("server")
	set["server.handle_allocs"] = handleAllocs
	set["server.response_bytes"] = mean(tr.respBytes)
	set["engine.compile_hit_us"] = med("engine.compile", class(classHit))
	set["engine.submit_hit_us"] = med("engine.submit", class(classHit))
	set["engine.submit_cold_us"] = med("engine.submit", class(classCold))
	set["engine.self_cold_us"] = median(coldSelf)
	set["engine.submit_cold_allocs"] = submitAllocs
	set["engine.batch8_us"] = med("engine.submit", class(classBatch))
	set["engine.write_us"] = med("engine.submit", class(classWrite))
	set["isa.assemble_us"] = med("isa.assemble", nil)
	set["isa.validate_us"] = med("isa.validate", nil)
	set["isa.optimize_us"] = med("isa.optimize", nil)
	set["isa.fuse8_us"] = med("isa.fuse", nil)
	set["isa.instrs_eliminated_share"] = ratio(float64(tr.eliminated), float64(tr.progInstrs))
	set["isa.planes_freed_per_prog"] = ratio(float64(tr.planesFreed), float64(tr.progs))
	set["machine.run_us"] = med("machine.run", under(classCold))
	set["machine.run_fused8_us"] = med("machine.run", under(classBatch))
	set["machine.clear_us"] = med("machine.clear", nil)
	set["machine.run_allocs"] = runAllocs
	set["machine.apply_delta_us_per_rec"] = ratio(tr.deltaMicros, float64(tr.deltaRecs))
	set["semnet.delta_range_us"] = med("semnet.delta_range", nil)
	simulatedMetrics(set, &tr.prof, tr.runOps)

	// The layers' self times must add back up to the request. The check
	// is on means: the pools mix three templates of very different cost,
	// and medians of a mixture do not add. What the sum can lose is the
	// part of a child replay that exceeded its parent and was clamped.
	sum := 0.0
	for _, l := range []string{"transport", "server", "engine", "isa", "machine", "semnet"} {
		xs := make([]float64, len(perReq))
		for i, m := range perReq {
			xs[i] = m[l]
		}
		sum += mean(xs)
	}
	var reqs []float64
	for i := range r.spans {
		if r.spans[i].Name == "request" {
			reqs = append(reqs, r.spans[i].micros())
		}
	}
	set["trace.request_us"] = median(reqs)
	set["trace.request_mean_us"] = mean(reqs)
	set["trace.self_sum_us"] = sum
	set["trace.overhead_us"] = set["trace.request_us"] - untraced
	set["trace.overshoot_share"] = ratio(float64(len(overshoot)), float64(len(r.spans)))
	return nil
}
