package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef names one metric and its unit. BENCHMARK.json repeats these
// lists (with direction and bound); the run fails if the two disagree.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. failed_share, the seventh
// figure every run reports, is carried by the result's attempted/failed
// counts and as client.failed_share: a gated metric may never be zero,
// and this one always should be.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_peak_mb", "MB"},
	{"vtime_us_per_op", "sim_us"},
}

// perLayer is where the time and the work went, one layer at a time.
// Sources: the client side of the load phase (client, host), the
// /v1/stats difference over it (engine ratios and means), and the
// traced run (everything else).
var perLayer = []metricDef{
	{"client.failed_share", "ratio"},
	{"client.raw_throughput_ops_s", "ops/s"},
	{"client.latency_p99_us", "us"},
	{"client.samples", "count"},
	{"client.read_p50_us", "us"},
	{"client.write_p50_us", "us"},
	{"client.solo_p50_us", "us"},
	{"client.quiet_slices", "count"},
	{"client.slice_spread", "ratio"},
	{"host.calib_ms_min", "ms"},
	{"host.calib_ms_median", "ms"},
	{"host.slowness_median", "ratio"},
	{"host.stolen_share", "ratio"},
	{"host.nproc", "count"},
	{"host.gomaxprocs", "count"},
	{"transport.self_us", "us"},
	{"server.handle_us", "us"},
	{"server.self_us", "us"},
	{"server.handle_allocs", "count"},
	{"server.response_bytes", "bytes"},
	{"engine.compile_hit_us", "us"},
	{"engine.submit_hit_us", "us"},
	{"engine.submit_cold_us", "us"},
	{"engine.self_cold_us", "us"},
	{"engine.submit_cold_allocs", "count"},
	{"engine.batch8_us", "us"},
	{"engine.write_us", "us"},
	{"engine.result_hit_ratio", "ratio"},
	{"engine.compile_hit_ratio", "ratio"},
	{"engine.fused_share", "ratio"},
	{"engine.round_size_mean", "count"},
	{"engine.steal_share", "ratio"},
	{"engine.queue_wait_mean_us", "us"},
	{"engine.run_mean_us", "us"},
	{"engine.write_mean_us", "us"},
	{"engine.deltas_per_commit", "count"},
	{"engine.full_reloads", "count"},
	{"engine.overloaded", "count"},
	{"engine.opt_fallbacks", "count"},
	{"engine.writes_share", "ratio"},
	{"isa.assemble_us", "us"},
	{"isa.validate_us", "us"},
	{"isa.optimize_us", "us"},
	{"isa.fuse8_us", "us"},
	{"isa.instrs_eliminated_share", "ratio"},
	{"isa.planes_freed_per_prog", "count"},
	{"machine.run_us", "us"},
	{"machine.run_fused8_us", "us"},
	{"machine.clear_us", "us"},
	{"machine.run_allocs", "count"},
	{"machine.ns_per_step_lockstep", "ns"},
	{"machine.ns_per_step_concurrent", "ns"},
	{"machine.collect_ns_per_row", "ns"},
	{"machine.apply_delta_us_per_rec", "us"},
	{"machine.loadkb_ms", "ms"},
	{"machine.clone_ms", "ms"},
	{"machine.steps_per_op", "count"},
	{"machine.vt_broadcast_share", "ratio"},
	{"machine.vt_comm_share", "ratio"},
	{"machine.vt_sync_share", "ratio"},
	{"machine.vt_collect_share", "ratio"},
	{"barrier.syncs_per_op", "count"},
	{"icn.messages_per_op", "count"},
	{"icn.hops_per_message", "count"},
	{"semnet.preprocess_ms", "ms"},
	{"semnet.delta_range_us", "us"},
	{"partition.assign_ms", "ms"},
	{"partition.cut_ratio", "ratio"},
	{"partition.hop_cost", "count"},
	{"kbgen.generate_ms", "ms"},
	{"trace.request_us", "us"},
	{"trace.request_mean_us", "us"},
	{"trace.self_sum_us", "us"},
	{"trace.overhead_us", "us"},
	{"trace.overshoot_share", "ratio"},
}

// exactEverywhere lists the metrics that are simulated or counted and so
// must repeat bit for bit between two runs of the same code and seed, on
// every workload.
var exactEverywhere = []string{
	"machine.steps_per_op", "machine.vt_broadcast_share", "machine.vt_comm_share",
	"machine.vt_sync_share", "machine.vt_collect_share", "barrier.syncs_per_op",
	"icn.messages_per_op", "icn.hops_per_message", "partition.cut_ratio", "partition.hop_cost",
	"isa.instrs_eliminated_share", "isa.planes_freed_per_prog",
}

// exactVirtualTime reports whether vtime_us_per_op must repeat exactly
// too: where no two requests are ever in flight on one replica
// (sim-parse) or nothing executes at all (serve-hot). Elsewhere fusion
// grouping depends on arrival timing.
func exactVirtualTime(workload string) bool {
	return workload == "sim-parse" || workload == "serve-hot"
}

// manifest is the part of BENCHMARK.json the program reads back.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// checkAgainst reports every metric BENCHMARK.json names that the
// program does not define with the same unit.
func (m *manifest) checkAgainst() error {
	var bad []string
	check := func(listed []manifestMetric, defs []metricDef) {
		units := make(map[string]string, len(defs))
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, l := range listed {
			if u, ok := units[l.Name]; !ok {
				bad = append(bad, l.Name+" (not emitted)")
			} else if u != l.Unit {
				bad = append(bad, fmt.Sprintf("%s (unit %s, BENCHMARK.json says %s)", l.Name, u, l.Unit))
			}
		}
	}
	check(m.EndToEnd, endToEnd)
	check(m.PerLayer, perLayer)
	if len(bad) > 0 {
		return fmt.Errorf("BENCHMARK.json names metrics the benchmark does not produce: %s", strings.Join(bad, ", "))
	}
	return nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLineOf picks from r the metrics the trace mode asks for. A
// metric r does not hold is an error: a name in BENCHMARK.json with no
// number behind it must not pass silently.
func resultLineOf(r *workloadResult, mode traceMode) (*resultLine, error) {
	out := &resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	var defs []metricDef
	if mode != traceOnly {
		defs = append(defs, endToEnd...)
	}
	if mode != untracedOnly {
		defs = append(defs, perLayer...)
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Name, d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printTable prints every metric of r by name and unit.
func printTable(w io.Writer, r *workloadResult, mode traceMode) {
	noisy := ""
	if r.Noisy {
		noisy = ", NOISY"
	}
	fmt.Fprintf(w, "\n== %s  (attempted %d, failed %d, failed_share %.6f%s)\n", r.Name, r.Attempted, r.Failed,
		ratio(float64(r.Failed), float64(r.Attempted)), noisy)
	row := func(d metricDef) {
		if v, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.name, v, d.unit)
		}
	}
	if mode != traceOnly {
		for _, d := range endToEnd {
			row(d)
		}
	}
	if mode != untracedOnly {
		for _, d := range perLayer {
			row(d)
		}
		if req := r.Metrics["trace.request_mean_us"]; req > 0 {
			fmt.Fprintf(w, "  mean layer self times sum to %.1f us against a mean traced request of %.1f us (%.1f%%)\n",
				r.Metrics["trace.self_sum_us"], req, 100*r.Metrics["trace.self_sum_us"]/req)
		}
		fmt.Fprintf(w, "  client.latency_p99_us is the p%g, with %d samples beyond it\n", 100*r.P99Percentile, r.P99Beyond)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// report is benchmark/out/report.json: every number of one invocation,
// stamped with what produced it.
type report struct {
	Commit           string              `json:"commit"`
	GoVersion        string              `json:"go_version"`
	NProc            int                 `json:"nproc"`
	GOMAXPROCSParent int                 `json:"gomaxprocs_parent"`
	GOMAXPROCSChild  int                 `json:"gomaxprocs_child"`
	Connections      int                 `json:"connections"`
	Seed             int64               `json:"seed"`
	SliceSeconds     float64             `json:"slice_seconds"`
	Sets             [][]*workloadResult `json:"sets"`
}

func newReport(root string, seed int64, sliceSeconds float64) *report {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &report{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCSParent: runtime.GOMAXPROCS(0), GOMAXPROCSChild: childGOMAXPROCS(),
		Connections: clientConns(), Seed: seed, SliceSeconds: sliceSeconds,
	}
}

// compareSets prints, for two sets of runs of the same code, each
// end-to-end metric's relative difference beside its bound, and returns
// the breaches: a difference in the worse direction beyond the bound,
// or an exact figure that did not repeat.
func compareSets(w io.Writer, m *manifest, a, b []*workloadResult) (breaches []string) {
	fmt.Fprintf(w, "\n== repeat: second set against first\n")
	for i := range a {
		ra, rb := a[i], b[i]
		for _, mm := range m.EndToEnd {
			va, vb := ra.Metrics[mm.Name], rb.Metrics[mm.Name]
			worse := ratio(vb-va, va)
			if mm.Better == "higher" {
				worse = -worse
			}
			bound := mm.Bound
			if mm.Name == "vtime_us_per_op" && exactVirtualTime(ra.Name) {
				bound = 0
				worse = math.Abs(worse)
			}
			verdict := "ok"
			if worse > bound {
				verdict = "BREACH"
				breaches = append(breaches, ra.Name+"/"+mm.Name)
			}
			fmt.Fprintf(w, "  %-12s %-18s %14.4f -> %14.4f  worse by %+7.2f%%  bound %5.1f%%  %s\n",
				ra.Name, mm.Name, va, vb, 100*worse, 100*bound, verdict)
		}
		for _, name := range exactEverywhere {
			if ra.Metrics[name] != rb.Metrics[name] {
				breaches = append(breaches, ra.Name+"/"+name+" (exact)")
				fmt.Fprintf(w, "  %-12s %-18s %v -> %v  did not repeat exactly  BREACH\n", ra.Name, name, ra.Metrics[name], rb.Metrics[name])
			}
		}
	}
	return breaches
}
