// Command snapd serves SNAP-1 marker-propagation queries over HTTP: a
// resident knowledge base, a pool of simulated array replicas that each
// request's own goroutine runs on, and a result-caching query engine
// behind a JSON API.
//
// Usage:
//
//	snapd -gen 4000 -domain -addr :8080
//	snapd -kb network.kb -max-inflight 512
//
// snapd runs on one P (runtime.GOMAXPROCS(1)) unless $GOMAXPROCS is set:
// like SNAP-1's controller, which waits for each COLLECT before it issues
// the next program, a request's stages run one after another, and a
// second P only adds the scheduler wake-ups that hand them between Ps.
// Set $GOMAXPROCS to serve on more cores. The pool holds one replica per
// P unless -replicas says otherwise: only that many can run at once.
//
// Endpoints:
//
//	POST /v1/query   {"program": "<SNAP assembly>", "timeout_ms": 1000}
//	                 (or Content-Type: text/plain with raw assembly)
//	POST /v1/mutate  topology-mutating programs (requires -writes);
//	                 commits on the writer, one write at a time, on the
//	                 request's own goroutine, and publishes a new KB
//	                 epoch before answering
//	GET  /v1/stats   serving counters, batch/shed stats, cache
//	                 hit rates, per-stage latency, write/delta counters
//	GET  /v1/health  per-replica quarantine state and overall status
//
// Every non-2xx response carries the typed error envelope
// {"error":{"code":...,"message":...,"retryable":...}} (see
// docs/RESILIENCE.md). Overloaded submissions (a full line of callers
// waiting for a replica, or the in-flight ceiling) answer 503 with a
// Retry-After header estimated from that line and the drain rate. SIGINT/SIGTERM drains in-flight
// queries before exit.
//
// -pprof addr serves net/http/pprof on a listener of its own (off by
// default, and never on the serving port), so the process a load
// generator is driving can be profiled in place (docs/PERF.md).
//
// A fault plan (-fault-plan plan.json) arms seeded fault injection in
// the simulated hardware for resilience drills; pair it with
// -query-timeout and -retries to exercise degraded serving.
//
// Example:
//
//	curl -s localhost:8080/v1/query -d '{"program":
//	  "search-node node=dog marker=c1 value=0\n
//	   propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n
//	   collect-node marker=c2"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"snap1/internal/engine"
	"snap1/internal/fault"
	"snap1/internal/kbfile"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
	"snap1/internal/semnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("snapd: ")
	runtime.GOMAXPROCS(serveProcs(os.Getenv))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // a second signal during the drain kills at once
	if err := run(ctx, os.Args[1:], nil); err != nil {
		log.Fatal(err)
	}
	log.Printf("bye")
}

// serveProcs is the GOMAXPROCS snapd serves on: 1 when $GOMAXPROCS is
// unset or empty, and otherwise 0, which leaves the runtime's own reading
// of $GOMAXPROCS in place (runtime.GOMAXPROCS(0) changes nothing).
func serveProcs(getenv func(string) string) int {
	if getenv("GOMAXPROCS") == "" {
		return 1
	}
	return 0
}

// run is the daemon: it parses args, brings the pool up, serves until ctx
// is cancelled (SIGINT/SIGTERM under main) and drains. listening, when
// not nil, is told the bound addresses once both listeners are up;
// profiling is nil without -pprof.
func run(ctx context.Context, args []string, listening func(serving, profiling net.Addr)) error {
	fs := flag.NewFlagSet("snapd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	kbPath := fs.String("kb", "", "knowledge-base file (kbfile format)")
	gen := fs.Int("gen", 0, "generate a synthetic knowledge base of N nodes instead")
	domain := fs.Bool("domain", false, "embed the newswire micro-domain in the generated network")
	seed := fs.Int64("seed", 42, "generation seed")
	replicas := fs.Int("replicas", 0, "machine-pool size; 0: one per P (GOMAXPROCS: 1 unless $GOMAXPROCS is set)")
	queueCap := fs.Int("queue-cap", 256, "bound on the callers waiting for a replica; beyond it queries shed with 503")
	cacheCap := fs.Int("cache-cap", 128, "compile-cache entry bound")
	resultCache := fs.Int("result-cache", 1024, "result-cache entry bound (0 disables result caching)")
	maxInFlight := fs.Int("max-inflight", 0, "in-flight query ceiling, 0 = no ceiling beyond -queue-cap")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight queries")
	clusters := fs.Int("clusters", 16, "cluster count per replica")
	part := fs.String("partition", "semantic", "partitioning: sequential, round-robin, or semantic")
	place := fs.Bool("place", false, "follow partitioning with hop-aware hypercube placement")
	monCap := fs.Int("monitor", 4096, "perfmon FIFO capacity (0 disables)")
	faultPlan := fs.String("fault-plan", "", "seeded fault-injection plan (JSON file; see docs/RESILIENCE.md)")
	queryTimeout := fs.Duration("query-timeout", 10*time.Second, "per-attempt query deadline (0 disables)")
	retries := fs.Int("retries", 3, "total execution attempts per query (1 disables retries)")
	writes := fs.Bool("writes", false, "accept topology-mutating programs on POST /v1/mutate (epoch-versioned online KB writes)")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof on this address, on its own listener (empty disables)")
	_ = fs.Parse(args) // ExitOnError: exits on a bad flag, so no error comes back

	start := time.Now()
	kb, err := loadKB(*kbPath, *gen, *domain, *seed)
	if err != nil {
		return err
	}
	built := time.Since(start)

	opts := []engine.Option{
		engine.WithReplicas(*replicas),
		engine.WithQueueCap(*queueCap),
		engine.WithCacheCap(*cacheCap),
		engine.WithResultCache(*resultCache),
		engine.WithMaxInFlight(*maxInFlight),
		engine.WithQueryTimeout(*queryTimeout),
		engine.WithRetryPolicy(engine.RetryPolicy{MaxAttempts: *retries}),
		engine.WithWrites(*writes),
		engine.WithMachineOptions(
			machine.WithClusters(*clusters),
			machine.WithMarkerUnits(2, 0),
			machine.WithPartition(*part),
			machine.WithPlacement(*place),
		),
	}
	if *monCap > 0 {
		opts = append(opts, engine.WithMonitor(perfmon.NewCollector(*monCap)))
	}
	if *faultPlan != "" {
		plan, err := fault.Load(*faultPlan)
		if err != nil {
			return err
		}
		log.Printf("fault plan armed: seed %d, %d rule(s)", plan.Seed, len(plan.Rules))
		opts = append(opts, engine.WithFaultPlan(plan))
	}
	start = time.Now()
	eng, err := engine.New(kb, opts...)
	if err != nil {
		return err
	}
	defer eng.Close()
	up := time.Since(start)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: engine.NewServer(eng)}
	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("serving %d-node knowledge base on %d replicas, %d procs at %s (knowledge base built in %.1f ms, pool up in %.1f ms)",
		kb.NumNodes(), eng.Stats().Replicas, runtime.GOMAXPROCS(0), ln.Addr(), millis(built), millis(up))

	var pprofLn net.Addr
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			srv.Close()
			return err
		}
		psrv := &http.Server{Handler: pprofMux()}
		defer psrv.Close()
		go func() { errc <- psrv.Serve(pln) }()
		pprofLn = pln.Addr()
		log.Printf("pprof at http://%s/debug/pprof/ (own listener, not the serving port)", pprofLn)
	}
	if listening != nil {
		listening(ln.Addr(), pprofLn)
	}

	// Graceful shutdown: stop accepting, let in-flight queries drain
	// within the deadline, then retire the replica pool.
	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down, draining for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	return nil
}

// millis is d in milliseconds, to the microsecond.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// pprofMux routes the net/http/pprof handlers on a mux of their own. The
// package also registers them on http.DefaultServeMux as it is imported;
// snapd serves that mux nowhere.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func loadKB(path string, gen int, domain bool, seed int64) (*semnet.KB, error) {
	switch {
	case path != "" && gen != 0:
		return nil, fmt.Errorf("-kb and -gen are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return kbfile.Parse(f)
	case gen != 0:
		g, err := kbgen.Generate(kbgen.Params{Nodes: gen, Seed: seed, WithDomain: domain})
		if err != nil {
			return nil, err
		}
		return g.KB, nil
	default:
		return nil, fmt.Errorf("need -kb file or -gen N")
	}
}
