package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"snap1/internal/fault"
	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// heavyQuery is a deliberately long-running read-only query: many
// propagate rounds so a single execution spans a measurable window.
func heavyQuery(concept string, rounds int) string {
	return "search-node node=" + concept + " marker=c1 value=0\n" +
		strings.Repeat("propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n", rounds) +
		"collect-node marker=c2\n"
}

// TestResultCacheBitIdentical is the tentpole acceptance check: a
// cache-hit query must return a machine.Result bit-identical — virtual
// time included — to uncached execution of the same program.
func TestResultCacheBitIdentical(t *testing.T) {
	g := fig15KB(t, 1600)
	cached, err := New(g.KB, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	uncached, err := New(g.KB, WithReplicas(2), WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer uncached.Close()

	src := inheritanceQuery(g, queryConcepts(g, 1)[0])
	first, err := cached.SubmitSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := cached.SubmitSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if hit != first {
		t.Error("repeat submission did not return the memoized Result object")
	}
	if st := cached.Stats(); st.ResultHits != 1 || st.ResultMisses != 1 {
		t.Errorf("result cache hits/misses = %d/%d, want 1/1", st.ResultHits, st.ResultMisses)
	}

	fresh, err := uncached.SubmitSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Time != fresh.Time {
		t.Errorf("cached virtual time %v != uncached %v", hit.Time, fresh.Time)
	}
	if !reflect.DeepEqual(hit.Collections, fresh.Collections) {
		t.Error("cached collections differ from uncached execution")
	}

	// And both must equal a sequential single-machine run.
	want := sequentialReference(t, uncached, []string{src})
	if hit.Time.String() != want[src].time || !sameNames(hit.Names(0), want[src].names) {
		t.Error("cached result diverged from sequential reference")
	}
}

// TestResultCacheGenerationKey pins the invalidation contract: a result
// memoized under one KB generation can never satisfy a lookup under
// another.
func TestResultCacheGenerationKey(t *testing.T) {
	c := newLRUCache[resultKey, *machine.Result](4)
	c.put(resultKey{42, 1}, nil)
	if _, ok := c.get(resultKey{42, 1}); !ok {
		t.Error("same-generation lookup missed")
	}
	if _, ok := c.get(resultKey{42, 2}); ok {
		t.Error("lookup under a newer KB generation hit a stale entry")
	}
	if _, ok := c.get(resultKey{7, 1}); ok {
		t.Error("lookup under a different program hash hit")
	}
}

// TestHotPathAllocs fences the steady-state serving path: a Submit the
// result cache answers, on a 16-replica pool, allocates nothing. A
// closure, a boxed key or a per-query context that creeps into Submit,
// the admission counters or the cache lookup fails here.
func TestHotPathAllocs(t *testing.T) {
	w := kbgen.Chains(1, 128, 8, 1)
	e, err := New(w.KB, WithReplicas(16))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p := isa.NewProgram()
	p.SearchColor(w.Seeds[0], 0, 0)
	p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd)
	p.Barrier()
	p.CollectNode(1)
	ctx := context.Background()
	submit := func() {
		res, err := e.Submit(ctx, p)
		if err != nil || len(res.Collected(0)) == 0 {
			t.Fatalf("hot submit: %v, %v", res, err)
		}
	}
	submit() // runs on a replica and fills the result cache
	if n := testing.AllocsPerRun(1000, submit); n != 0 {
		t.Errorf("a result-cache hit allocates %v times per query, want 0", n)
	}
	if st := e.Stats(); st.ResultMisses != 1 {
		t.Errorf("%d submissions missed the result cache, want only the first", st.ResultMisses)
	}
}

// TestColdSubmitAllocations fences a result-cache miss through Submit on
// a one-replica engine: the caller takes the replica and runs the
// program on its own goroutine, so what is allocated is the attempt's
// bookkeeping, the run's result and the cache entry — no request, no
// reply channel, no hand-off. Every submission is a distinct program, so
// every one misses and runs.
func TestColdSubmitAllocations(t *testing.T) {
	const runs = 200
	w := kbgen.Chains(1, 128, 8, 1)
	e, err := New(w.KB, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	progs := make([]*isa.Program, runs+1)
	for i := range progs {
		p := isa.NewProgram()
		p.SearchColor(w.Seeds[0], 0, float32(i))
		p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd)
		p.Barrier()
		p.CollectNode(1)
		p.Seal()
		progs[i] = p
	}
	ctx := context.Background()
	next := 0
	submit := func() {
		res, err := e.Submit(ctx, progs[next])
		if err != nil || len(res.Collected(0)) == 0 {
			t.Fatalf("cold submit: %v, %v", res, err)
		}
		next++
	}
	n := testing.AllocsPerRun(runs, submit)
	if st := e.Stats(); st.ResultMisses != runs+1 || st.Completed != runs+1 {
		t.Fatalf("%d misses, %d runs; want %d of each", st.ResultMisses, st.Completed, runs+1)
	}
	if fence := float64(coldSubmitAllocs + 2); n > fence {
		t.Errorf("a result-cache miss allocates %v times per query, fence %v", n, fence)
	}
}

// coldSubmitAllocs is what TestColdSubmitAllocations measured when its
// fence was set (docs/PERF.md § "What is held exactly").
const coldSubmitAllocs = 13

// TestOverloadShed exercises admission control: both the in-flight
// ceiling and the queue capacity must fail fast with ErrOverloaded, and
// the engine must keep serving once load drains. Programs are compiled
// up front so every timing-sensitive submission is microsecond-scale
// against a replica held busy for ~100ms.
func TestOverloadShed(t *testing.T) {
	g := fig15KB(t, 3200)

	waitFor := func(t *testing.T, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal("condition not reached in time")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	concepts := queryConcepts(g, 4)

	t.Run("max-inflight", func(t *testing.T) {
		e, err := New(g.KB, WithReplicas(1), WithMaxInFlight(1), WithResultCache(0))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		heavy, err := e.Compile(heavyQuery(concepts[0], 100000))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := e.Compile(inheritanceQuery(g, concepts[1]))
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = e.Submit(ctx, heavy)
		}()
		waitFor(t, func() bool { return e.Stats().InFlight == 1 })

		if _, err := e.Submit(context.Background(), fast); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit beyond MaxInFlight returned %v, want ErrOverloaded", err)
		}
		if st := e.Stats(); st.Overloaded == 0 {
			t.Error("shed submission not counted in Stats.Overloaded")
		}
		cancel()
		<-done
		waitFor(t, func() bool { return e.Stats().InFlight == 0 })
		if _, err := e.Submit(context.Background(), fast); err != nil {
			t.Fatalf("engine unusable after shedding: %v", err)
		}
	})

	t.Run("queue-cap", func(t *testing.T) {
		e, err := New(g.KB, WithReplicas(1), WithQueueCap(1), WithResultCache(0))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		// Result caching is off, so two submissions of the identical heavy
		// program both execute: the first occupies the replica, the second
		// fills the one-slot queue.
		heavy, err := e.Compile(heavyQuery(concepts[0], 100000))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := e.Compile(inheritanceQuery(g, concepts[2]))
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = e.Submit(ctx, heavy)
			}()
			if i == 0 {
				waitFor(t, func() bool {
					st := e.Stats()
					return st.InFlight == 1 && st.QueueDepth == 0
				})
			}
		}
		waitFor(t, func() bool { return e.Stats().QueueDepth == 1 })

		if _, err := e.Submit(context.Background(), fast); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit beyond QueueCap returned %v, want ErrOverloaded", err)
		}
		cancel()
		wg.Wait()
	})
}

// TestBurstSpreadsOverFreeReplicas pins the round rule from the engine's
// side: a batch admitted while every replica is idle is spread over them
// — the caller's replica and a helper on each other idle one, each
// taking one member at a time — and spreading changes no answer. Every
// run stalls 20 ms of host time (an injected machine-slow, which changes
// no answer), so no replica can drain the batch before the others start,
// whatever the scheduler does.
func TestBurstSpreadsOverFreeReplicas(t *testing.T) {
	g := fig15KB(t, 800)
	mon := perfmon.NewCollector(1024)
	slow := &fault.Plan{Seed: 1, Rules: []fault.Rule{{Site: "machine-slow", Rate: 1, StallUs: 20_000}}}
	e, err := New(g.KB, WithReplicas(4), WithResultCache(0), WithMonitor(mon), WithFaultPlan(slow))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	concepts := queryConcepts(g, 8)
	progs := make([]*isa.Program, len(concepts))
	solo := make([]*machine.Result, len(concepts))
	for i, c := range concepts {
		if progs[i], err = e.Compile(inheritanceQuery(g, c)); err != nil {
			t.Fatal(err)
		}
		solo[i] = soloReference(t, e, progs[i])
	}
	waitFor(t, "every replica idle", func() bool { return e.Stats().IdleReplicas == 4 })

	results, errs := e.SubmitBatch(context.Background(), progs)
	for i := range progs {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i].Collections, solo[i].Collections) {
			t.Errorf("member %d: collections diverge from its solo run", i)
		}
	}
	largest, served := 0, map[int]bool{}
	for _, rec := range mon.Drain() {
		if rec.Code == perfmon.EvBatchDispatch {
			largest = max(largest, int(rec.Status))
			served[rec.Source] = true
		}
	}
	if largest != 1 || len(served) != 4 {
		t.Errorf("8 members over 4 idle replicas: largest round %d on %d replicas; want 1 on all 4", largest, len(served))
	}
}

// TestCompileLRUStorm hammers a 2-entry compile cache from concurrent
// submitters over 4 distinct sources, so evictions race lookups; run
// under -race this is the satellite coverage for the compile LRU, and
// the counters must stay consistent.
func TestCompileLRUStorm(t *testing.T) {
	g := fig15KB(t, 400)
	e, err := New(g.KB, WithReplicas(1), WithCacheCap(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	concepts := queryConcepts(g, 4)
	srcs := make([]string, 4)
	wantHash := make([]uint64, 4)
	for i, c := range concepts {
		srcs[i] = inheritanceQuery(g, c)
		prog, err := e.Compile(srcs[i])
		if err != nil {
			t.Fatal(err)
		}
		wantHash[i] = prog.Hash()
	}

	const workers = 8
	const iters = 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Two back-to-back compiles of the same source: the second
				// usually hits, unless a concurrent eviction races it —
				// exactly the interleaving this storm is after.
				k := (w + i) % len(srcs)
				for rep := 0; rep < 2; rep++ {
					prog, err := e.Compile(srcs[k])
					if err != nil {
						errs <- err
						return
					}
					if prog.Hash() != wantHash[k] {
						errs <- fmt.Errorf("source %d compiled to hash %x, want %x", k, prog.Hash(), wantHash[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := e.Stats()
	total := uint64(len(srcs) + workers*iters*2)
	if st.CompileHits+st.CompileMisses != total {
		t.Errorf("hits+misses = %d, want %d", st.CompileHits+st.CompileMisses, total)
	}
	if st.CompileHits == 0 || st.CompileMisses < uint64(len(srcs)) {
		t.Errorf("implausible counters under storm: hits=%d misses=%d", st.CompileHits, st.CompileMisses)
	}
	if n := e.cache.len(); n > 2 {
		t.Errorf("cache resident entries = %d, want <= 2", n)
	}
}
