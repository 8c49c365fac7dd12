// Command benchmark measures the system the way its two kinds of user
// meet it: a client of cmd/snapd over loopback HTTP (serve-cold,
// serve-hot, serve-batch, serve-churn) and a researcher running the
// paper's sentence parser on the bare simulator (sim-parse). It reports
// host time and simulated time for every workload, checks every answer
// it samples against an oracle, and, in a separate traced run, where
// the time went layer by layer. See README.md in this directory.
//
//	go run ./benchmark                      all workloads, untraced then traced
//	go run ./benchmark -workload serve-hot  one workload
//	go run ./benchmark -repeat 2            two sets; differences beside their bounds
//	go run ./benchmark -smoke               one 0.5 s slice per workload
//
// The driver's form, one run of one workload, ending in one JSON line:
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// traceMode selects which half of the measurement a run reports.
type traceMode int

const (
	untracedOnly traceMode = 0 // end-to-end metrics; set-up repeated for its median
	traceOnly    traceMode = 1 // per-layer metrics: load phase for the client and /v1/stats figures, then the traced run
	both         traceMode = 2
)

func main() {
	// Whatever ends the run, no snapd survives it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program, from the checkout's root directory.
func run(args []string, stdout, stderr io.Writer) int {
	defer killAllChildren()
	flags := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	flags.SetOutput(stderr)
	workload := flags.String("workload", "all", "workload to run: sim-parse, serve-cold, serve-hot, serve-batch, serve-churn, or all")
	seed := flags.Int64("seed", 42, "seed of the generated knowledge base, the node draws and the pool order")
	seconds := flags.Float64("seconds", 20, "measured seconds per run, split into 10 slices")
	traceFlag := flags.Int("trace", int(both), "0: end-to-end metrics only; 1: per-layer metrics only; 2: both")
	smoke := flags.Bool("smoke", false, "one 0.5 s slice, small pools, few traced requests: checks plumbing, not performance")
	repeat := flags.Int("repeat", 1, "run this many full sets; with 2, print each end-to-end metric's difference beside its bound")
	out := flags.String("out", filepath.Join("benchmark", "out"), "directory for report.json, trace.json, the snapd binary and its logs")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	mode := traceMode(*traceFlag)
	if mode < untracedOnly || mode > both {
		return fail(fmt.Errorf("-trace must be 0, 1 or 2"))
	}
	if *workload != "all" && !isWorkload(*workload) {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || *repeat < 1 {
		return fail(errors.New("-seconds and -repeat must be positive"))
	}

	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	mf, err := loadManifest(root)
	if err != nil {
		return fail(err)
	}
	if err := mf.checkAgainst(); err != nil {
		return fail(err)
	}
	if err := checkCanonical(root); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}

	cfg := runConfig{
		out: *out, seed: *seed,
		slices: slicesPerRun, slice: time.Duration(*seconds / slicesPerRun * float64(time.Second)),
		trace:    mode != untracedOnly,
		coldSize: coldPoolSize, traceRequests: 500, differentialReps: 15,
	}
	// With -trace 1 setup_s is not reported; the time goes to the traced run.
	cfg.oneSetup = mode == traceOnly || *smoke
	if *smoke {
		cfg.slices, cfg.slice = 1, 500*time.Millisecond
		cfg.coldSize, cfg.traceRequests, cfg.differentialReps = 256, 50, 3
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	rep := newReport(root, *seed, cfg.slice.Seconds())
	if *repeat > 1 {
		for set := 1; set <= *repeat; set++ {
			dir := filepath.Join(*out, fmt.Sprintf("set-%d", set))
			results, err := runSetInChild(dir, stdout, stderr, "-workload", *workload, "-seed", fmt.Sprint(*seed),
				"-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*traceFlag), fmt.Sprintf("-smoke=%t", *smoke), "-out", dir)
			if err != nil {
				return fail(fmt.Errorf("set %d: %w", set, err))
			}
			rep.Sets = append(rep.Sets, results)
		}
		if err := writeJSON(filepath.Join(*out, "report.json"), rep); err != nil {
			return fail(err)
		}
		if *repeat == 2 {
			if breaches := compareSets(stdout, mf, rep.Sets[0], rep.Sets[1]); len(breaches) > 0 {
				return fail(fmt.Errorf("repeat check failed: %v", breaches))
			}
		}
		return 0
	}

	if *workload != "sim-parse" {
		buildCtx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		cfg.snapd, err = buildSnapd(buildCtx, root, *out)
		cancel()
		if err != nil {
			return fail(err)
		}
	}

	var results []*workloadResult
	var spans []span
	for _, name := range names {
		var r *workloadResult
		if name == "sim-parse" {
			r, err = runSim(cfg)
		} else {
			r, err = runServe(cfg, name)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		printTable(stdout, r, mode)
		results = append(results, r)
		spans = append(spans, r.spans...)
	}
	rep.Sets = [][]*workloadResult{results}
	if err := writeJSON(filepath.Join(*out, "report.json"), rep); err != nil {
		return fail(err)
	}
	if cfg.trace {
		if err := writeJSON(filepath.Join(*out, "trace.json"), spans); err != nil {
			return fail(err)
		}
	}

	// A metric BENCHMARK.json names with no number behind it fails the
	// run; so does a wrong answer, wherever it happens: on sim-parse and
	// serve-hot nothing is timing-dependent, so there is no excuse at
	// all.
	ok := true
	for _, r := range results {
		line, err := resultLineOf(r, mode)
		if err != nil {
			return fail(err)
		}
		if len(results) == 1 {
			b, err := json.Marshal(line)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "%s\n", b)
		}
		ok = ok && r.correct()
	}
	if !ok {
		return fail(errors.New("a check failed; see PROBLEM lines and failed counts above"))
	}
	return 0
}

// runSetInChild runs one full set in a process of its own, so that no
// set inherits another's heap, and reads its results back from the
// report it wrote to dir.
func runSetInChild(dir string, stdout, stderr io.Writer, args ...string) ([]*workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	// If this process is killed, the set goes with it, and its snapd
	// with the set.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, err
	}
	if len(rep.Sets) != 1 {
		return nil, fmt.Errorf("%s holds %d sets, want 1", dir, len(rep.Sets))
	}
	return rep.Sets[0], nil
}
