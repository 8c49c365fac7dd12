package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"snap1/internal/fault"
	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// fig15KB generates the synthetic linguistic knowledge base of the
// paper's Fig. 15 scalability experiment.
func fig15KB(t testing.TB, nodes int) *kbgen.Generated {
	t.Helper()
	g, err := kbgen.Generate(kbgen.Params{Nodes: nodes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// inheritanceQuery is a root-to-leaf style marker-propagation query in
// SNAP assembly: activate a concept, spread up the is-a chain summing
// link weights, collect the ancestry.
func inheritanceQuery(g *kbgen.Generated, concept string) string {
	_ = g
	return fmt.Sprintf(
		"search-node node=%s marker=c1 value=0\n"+
			"propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n"+
			"collect-node marker=c2\n", concept)
}

// queryConcepts picks a spread of distinct leaf concepts.
func queryConcepts(g *kbgen.Generated, n int) []string {
	names := make([]string, 0, n)
	for i := 0; len(names) < n && i < len(g.Leaves); i += 1 + len(g.Leaves)/n {
		names = append(names, g.KB.Name(g.Leaves[i]))
	}
	return names
}

type expectation struct {
	names []string
	time  string
}

// sequentialReference runs every query on one fresh machine, one at a
// time — the ground truth the concurrent engine must match exactly.
func sequentialReference(t *testing.T, e *Engine, sources []string) map[string]expectation {
	t.Helper()
	m, err := machine.New(e.cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(e.kb); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]expectation, len(sources))
	for _, src := range sources {
		prog, err := e.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		m.ClearMarkers()
		res, err := m.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		want[src] = expectation{names: res.Names(0), time: res.Time.String()}
	}
	return want
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentSubmitMatchesSequential drives ≥8 concurrent submitters
// through one engine over the Fig. 15 synthetic KB and requires every
// per-query result to be identical to sequential execution. One source
// fills a scratch plane nothing collects: the engine serves it as
// written, so its virtual time too is the sequential run's.
func TestConcurrentSubmitMatchesSequential(t *testing.T) {
	g := fig15KB(t, 1600)
	e, err := New(g.KB, WithReplicas(4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	concepts := queryConcepts(g, 16)
	sources := make([]string, 0, len(concepts)+1)
	for _, c := range concepts {
		sources = append(sources, inheritanceQuery(g, c))
	}
	sources = append(sources, "set-marker marker=c3 value=0\n"+
		"func-marker marker=c3 fn=add operand=1\n"+
		"search-node node="+concepts[0]+" marker=c1 value=0\n"+
		"propagate m1=c1 m2=c3 rule=path(is-a) fn=add\n"+
		"propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n"+
		"collect-node marker=c2\n")
	want := sequentialReference(t, e, sources)

	const submitters = 8
	const perSubmitter = 6
	var wg sync.WaitGroup
	errs := make(chan error, submitters*perSubmitter)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				src := sources[(w*perSubmitter+i)%len(sources)]
				res, err := e.SubmitSource(context.Background(), src)
				if err != nil {
					errs <- fmt.Errorf("submitter %d: %v", w, err)
					return
				}
				exp := want[src]
				if !sameNames(res.Names(0), exp.names) {
					errs <- fmt.Errorf("submitter %d: names diverge from sequential: got %v want %v",
						w, res.Names(0), exp.names)
					return
				}
				if res.Time.String() != exp.time {
					errs <- fmt.Errorf("submitter %d: virtual time diverged: got %v want %v",
						w, res.Time, exp.time)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := e.Stats()
	// Each submission either executes or is a result-cache hit. Every
	// unique source executes at least once; identical misses that
	// overlap each execute, so a source may execute more than once.
	if got := st.Completed + st.ResultHits; got != submitters*perSubmitter {
		t.Errorf("completed+hits = %d, want %d", got, submitters*perSubmitter)
	}
	if st.Completed < uint64(len(sources)) {
		t.Errorf("completed = %d, want >= %d (every unique source executes)", st.Completed, len(sources))
	}
	if st.ResultHits == 0 {
		t.Error("no submission was served by the result cache")
	}
	if st.Batches == 0 {
		t.Error("no batches dispatched")
	}
	if st.BatchedQueries != st.Completed {
		t.Errorf("batched queries %d != completed %d", st.BatchedQueries, st.Completed)
	}
	if st.CompileHits == 0 {
		t.Error("compile cache never hit despite repeated sources")
	}
	if st.Run.Count != st.Completed {
		t.Errorf("run latency count %d != completed %d", st.Run.Count, st.Completed)
	}
}

// TestConcurrentSubmitUncached repeats the sequential-equivalence drive
// with result caching disabled: every submission must execute on a
// replica and still match the sequential reference exactly.
func TestConcurrentSubmitUncached(t *testing.T) {
	g := fig15KB(t, 1600)
	e, err := New(g.KB, WithReplicas(4), WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sources := make([]string, 0, 8)
	for _, c := range queryConcepts(g, 8) {
		sources = append(sources, inheritanceQuery(g, c))
	}
	want := sequentialReference(t, e, sources)

	const submitters = 6
	const perSubmitter = 4
	var wg sync.WaitGroup
	errs := make(chan error, submitters*perSubmitter)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				src := sources[(w*perSubmitter+i)%len(sources)]
				res, err := e.SubmitSource(context.Background(), src)
				if err != nil {
					errs <- fmt.Errorf("submitter %d: %v", w, err)
					return
				}
				exp := want[src]
				if !sameNames(res.Names(0), exp.names) || res.Time.String() != exp.time {
					errs <- fmt.Errorf("submitter %d: diverged from sequential", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := e.Stats()
	if st.Completed != submitters*perSubmitter {
		t.Errorf("completed = %d, want %d with caching disabled", st.Completed, submitters*perSubmitter)
	}
	if st.ResultHits != 0 {
		t.Errorf("result cache active despite WithResultCache(0): hits=%d", st.ResultHits)
	}
}

// TestConcurrentDistinctSubmitsMatchSequential drives a cache-disabled
// engine with concurrent distinct queries on fewer replicas than
// submitters: whichever replica serves each, every answer's collections
// must match the sequential reference.
func TestConcurrentDistinctSubmitsMatchSequential(t *testing.T) {
	g := fig15KB(t, 1600)
	e, err := New(g.KB, WithReplicas(2), WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sources := make([]string, 0, 8)
	for _, c := range queryConcepts(g, 8) {
		sources = append(sources, inheritanceQuery(g, c))
	}
	want := sequentialReference(t, e, sources)

	const submitters = 8
	var wg sync.WaitGroup
	errs := make(chan error, submitters*len(sources))
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range sources {
				src := sources[(w+i)%len(sources)]
				res, err := e.SubmitSource(context.Background(), src)
				if err != nil {
					errs <- err
					return
				}
				if !sameNames(res.Names(0), want[src].names) {
					errs <- fmt.Errorf("names diverged from sequential for %q", src)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// blockerFixture is a small network — seeds a and b, a one link from
// mid — plus a 250-node chain for a long-running blocker query. plain(v)
// is a short query from a; walk(v, n) walks the chain n times, and
// blocker(v) is walk(v, 20 000), a run of a few hundred milliseconds.
// Distinct v, distinct program hash.
type blockerFixture struct {
	kb             *semnet.KB
	plain, blocker func(v float32) *isa.Program
	walk           func(v float32, n int) *isa.Program
}

func newBlockerFixture() *blockerFixture {
	kb := semnet.NewKB()
	r, next := kb.Relation("r"), kb.Relation("next")
	seed, other := kb.ColorFor("seed"), kb.ColorFor("other")
	a := kb.MustAddNode("a", seed)
	kb.MustAddNode("b", seed)
	mid := kb.MustAddNode("mid", other)
	kb.MustAddLink(a, r, 1, mid)
	head := kb.MustAddNode("chain-000", other)
	for i, prev := 1, head; i < 250; i++ {
		n := kb.MustAddNode(fmt.Sprintf("chain-%03d", i), other)
		kb.MustAddLink(prev, next, 1, n)
		prev = n
	}
	walk := func(v float32, n int) *isa.Program {
		p := isa.NewProgram()
		p.SearchNode(head, 0, v)
		for i := 0; i < n; i++ {
			p.Propagate(0, 1, rules.Path(next), semnet.FuncAdd)
		}
		p.CollectNode(1)
		return p
	}
	return &blockerFixture{
		kb: kb,
		plain: func(v float32) *isa.Program {
			p := isa.NewProgram()
			p.SearchNode(a, 0, v)
			p.Propagate(0, 1, rules.Path(r), semnet.FuncAdd)
			p.Barrier()
			p.CollectNode(1)
			return p
		},
		blocker: func(v float32) *isa.Program { return walk(v, 20000) },
		walk:    walk,
	}
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached in time", what)
		}
	}
}

// closeWithin fails the test when e.Close does not return within d — a
// replica wedged on an answer nobody will read never leaves its run.
func closeWithin(t *testing.T, e *Engine, d time.Duration) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(d):
		t.Fatalf("Engine.Close did not return within %v", d)
	}
}

// TestCancelMidRunLeavesPoolReusable cancels a query in flight on a
// single-replica engine and requires the replica to serve correct
// results afterwards.
func TestCancelMidRunLeavesPoolReusable(t *testing.T) {
	g := fig15KB(t, 800)
	e, err := New(g.KB, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	concepts := queryConcepts(g, 4)
	// A long program: many alternating propagate/clear rounds.
	long := "search-node node=" + concepts[0] + " marker=c1 value=0\n"
	for i := 0; i < 200; i++ {
		long += "propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n"
		long += "clear-marker marker=c2\n"
	}
	long += "collect-node marker=c2\n"

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.SubmitSource(ctx, long)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submit returned %v", err)
	}

	// The pool must still serve fresh queries with sequential-identical
	// results.
	src := inheritanceQuery(g, concepts[1])
	want := sequentialReference(t, e, []string{src})
	res, err := e.SubmitSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if !sameNames(res.Names(0), want[src].names) {
		t.Errorf("post-cancel result diverged: got %v want %v", res.Names(0), want[src].names)
	}
}

// TestQueuedCancellation cancels a query while it waits behind another
// on a one-replica pool.
func TestQueuedCancellation(t *testing.T) {
	g := fig15KB(t, 800)
	e, err := New(g.KB, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	concept := queryConcepts(g, 1)[0]
	if _, err := e.SubmitSource(ctx, inheritanceQuery(g, concept)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled submit returned %v, want context.Canceled", err)
	}
	if _, err := e.SubmitSource(context.Background(), inheritanceQuery(g, concept)); err != nil {
		t.Fatalf("engine unusable after canceled query: %v", err)
	}
}

// TestStatsAccountEveryRequestOnce: every admitted request ends in
// exactly one outcome counter, whoever stopped waiting for it first. One
// replica (or the writer) is held busy by a long run; behind it wait a
// request whose caller gives up while it waits, a second long run that is
// cancelled once it is executing, and a plain one. At quiescence the four
// admitted requests are one Canceled (its caller gone before it ran), two
// failed (cancelled mid-run) and one completed.
func TestStatsAccountEveryRequestOnce(t *testing.T) {
	fx := newBlockerFixture()
	for _, tc := range []struct {
		name   string
		opts   []Option
		submit func(e *Engine, ctx context.Context, p *isa.Program) error
		queued func(e *Engine) int  // admitted, waiting for a replica or the writer
		busy   func(e *Engine) bool // a run is executing
		// The admitted requests and the two run outcomes.
		counts func(st Stats) (admitted, ok, failed uint64)
	}{
		{
			name: "query",
			submit: func(e *Engine, ctx context.Context, p *isa.Program) error {
				_, err := e.Submit(ctx, p)
				return err
			},
			queued: func(e *Engine) int { _, waiting := e.pool.gauges(); return waiting },
			busy:   func(e *Engine) bool { return e.Stats().IdleReplicas == 0 },
			counts: func(st Stats) (uint64, uint64, uint64) { return st.Submitted, st.Completed, st.Failed },
		},
		{
			// The path behind /v1/mutate. Writes have no submitted
			// counter: the test admits four.
			name: "mutate",
			opts: []Option{WithWrites(true)},
			submit: func(e *Engine, ctx context.Context, p *isa.Program) error {
				_, err := e.SubmitWrite(ctx, p)
				return err
			},
			queued: func(e *Engine) int { _, waiting := e.writes.gauges(); return waiting },
			busy:   writerBusy,
			counts: func(st Stats) (uint64, uint64, uint64) { return 4, st.Writes, st.WriteFailures },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(fx.kb, append([]Option{WithReplicas(1)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer closeWithin(t, e, 10*time.Second)
			submit := func(p *isa.Program) (chan error, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				ch := make(chan error, 1)
				go func() { ch <- tc.submit(e, ctx, p) }()
				return ch, cancel
			}
			wantCanceled := func(what string, ch chan error) {
				t.Helper()
				if err := <-ch; !errors.Is(err, context.Canceled) {
					t.Fatalf("%s returned %v, want context.Canceled", what, err)
				}
			}

			holder, cancelHolder := submit(fx.blocker(0))
			defer cancelHolder()
			waitFor(t, "holder running", func() bool { return tc.busy(e) && tc.queued(e) == 0 })
			// queue submits p and returns once it waits behind the holder.
			queue := func(what string, p *isa.Program) (chan error, context.CancelFunc) {
				t.Helper()
				before := tc.queued(e)
				ch, cancel := submit(p)
				waitFor(t, what+" queued", func() bool { return tc.queued(e) == before+1 })
				return ch, cancel
			}
			waiting, cancelWaiting := queue("second request", fx.plain(1))
			cancelWaiting()
			wantCanceled("the request abandoned in the queue", waiting)
			midRun, cancelMidRun := queue("third request", fx.blocker(1))
			defer cancelMidRun()
			last, cancelLast := queue("fourth request", fx.plain(2))
			defer cancelLast()

			cancelHolder()
			wantCanceled("the holder, cancelled mid-run", holder)
			// The abandoned request is counted by the time the run behind
			// it starts, within microseconds of the holder's end.
			waitFor(t, "abandoned request counted", func() bool { return e.Stats().Canceled >= 1 && tc.busy(e) })
			time.Sleep(5 * time.Millisecond)
			cancelMidRun()
			wantCanceled("the third request, cancelled mid-run", midRun)
			if err := <-last; err != nil {
				t.Fatalf("the last request: %v", err)
			}
			waitFor(t, "quiescence", func() bool { return !tc.busy(e) && tc.queued(e) == 0 })

			st := e.Stats()
			admitted, ok, failed := tc.counts(st)
			if admitted != ok+failed+st.Canceled {
				t.Errorf("admitted %d != completed %d + failed %d + canceled %d", admitted, ok, failed, st.Canceled)
			}
			if admitted != 4 || ok != 1 || failed != 2 || st.Canceled != 1 {
				t.Errorf("admitted %d, completed %d, failed %d, canceled %d; want 4, 1, 2, 1", admitted, ok, failed, st.Canceled)
			}
		})
	}

	// A batch whose members are retried: each of two replicas poisons the
	// first run it serves, so members are admitted more than once. Every
	// admission is one Submitted and ends in one outcome.
	t.Run("batch-retried", func(t *testing.T) {
		g := fig15KB(t, 200)
		e := resilientEngine(t, g, &fault.Plan{Seed: 42, Rules: []fault.Rule{{Site: "icn-drop", Rate: 1, Count: 1}}},
			WithReplicas(2),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 6}))
		var srcs []string
		for _, c := range queryConcepts(g, 4) {
			srcs = append(srcs, inheritanceQuery(g, c))
		}
		progs := compileAll(t, e, srcs)
		if _, errs := e.SubmitBatch(context.Background(), progs); errors.Join(errs...) != nil {
			t.Fatal(errors.Join(errs...))
		}
		st := e.Stats()
		if st.Submitted != st.Completed+st.Failed+st.Canceled {
			t.Errorf("submitted %d != completed %d + failed %d + canceled %d", st.Submitted, st.Completed, st.Failed, st.Canceled)
		}
		if n := uint64(len(progs)); st.Retries == 0 || st.Submitted != n+st.Retries || st.Completed != n || st.Failed != st.Retries || st.InFlight != 0 {
			t.Errorf("submitted %d, completed %d, failed %d, retries %d, in flight %d; want %d + retries, %d, retries, > 0, 0",
				st.Submitted, st.Completed, st.Failed, st.Retries, st.InFlight, n, n)
		}
	})
}

// TestMutatingProgramRejected requires topology-mutating queries to be
// refused with the bad-program sentinel.
func TestMutatingProgramRejected(t *testing.T) {
	g := fig15KB(t, 400)
	e, err := New(g.KB, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	p := isa.NewProgram()
	p.SetColor(g.HierRoot, 1)
	if _, err := e.Submit(context.Background(), p); !errors.Is(err, ErrMutatingProgram) {
		t.Fatalf("mutating program returned %v, want ErrMutatingProgram", err)
	}
	if _, err := e.Submit(context.Background(), p); !errors.Is(err, isa.ErrBadProgram) {
		t.Fatalf("mutating program should wrap isa.ErrBadProgram, got %v", err)
	}
}

// TestCompileCacheLRU exercises hit/miss accounting and eviction.
func TestCompileCacheLRU(t *testing.T) {
	g := fig15KB(t, 400)
	e, err := New(g.KB, WithReplicas(1), WithCacheCap(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	concepts := queryConcepts(g, 3)
	q := func(i int) string { return inheritanceQuery(g, concepts[i]) }

	for _, i := range []int{0, 0, 1, 2, 0} { // 0 evicted before final use
		if _, err := e.Compile(q(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CompileHits != 1 || st.CompileMisses != 4 {
		t.Errorf("cache hits/misses = %d/%d, want 1/4", st.CompileHits, st.CompileMisses)
	}
	if n := e.cache.len(); n != 2 {
		t.Errorf("cache resident entries = %d, want 2", n)
	}

	// What the cache hands out is shared by every caller: it is sealed,
	// so its hash is computed once and nobody can grow it.
	prog, err := e.Compile(q(0))
	if err != nil {
		t.Fatal(err)
	}
	h := prog.Hash()
	if err := prog.Add(isa.Instruction{Op: isa.OpCommEnd}); !errors.Is(err, isa.ErrBadProgram) {
		t.Errorf("Add on a compiled program: %v, want a refusal", err)
	}
	if prog.Hash() != h || prog.Len() != 3 {
		t.Error("a compiled program changed under Add")
	}
}

// TestSubmitAfterClose verifies the shutdown path: a closed engine
// refuses at every door, so nobody is left waiting in a line.
func TestSubmitAfterClose(t *testing.T) {
	g := fig15KB(t, 400)
	e, err := New(g.KB, WithReplicas(1), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := e.Compile(inheritanceQuery(g, queryConcepts(g, 1)[0]))
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	ctx := context.Background()
	if _, err := e.Submit(ctx, prog); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after close returned %v, want ErrClosed", err)
	}
	if _, errs := e.SubmitBatch(ctx, []*isa.Program{prog, prog}); !errors.Is(errs[0], ErrClosed) || !errors.Is(errs[1], ErrClosed) {
		t.Errorf("SubmitBatch after close returned %v, want ErrClosed twice", errs)
	}
	if _, err := e.SubmitWrite(ctx, prog); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitWrite after close returned %v, want ErrClosed", err)
	}
	if st := e.Stats(); st.QueueDepth != 0 || st.InFlight != 0 {
		t.Errorf("after close: queue depth %d, in flight %d; want 0, 0", st.QueueDepth, st.InFlight)
	}
}

// TestDefaultReplicasFollowGOMAXPROCS: without WithReplicas the pool
// holds one replica per core, since a replica runs only on the goroutine
// holding it and more than GOMAXPROCS of them can only add memory; an
// explicit count still wins.
func TestDefaultReplicasFollowGOMAXPROCS(t *testing.T) {
	g := fig15KB(t, 200)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			opts []Option
			want int
		}{
			{nil, procs},
			{[]Option{WithReplicas(5)}, 5},
		} {
			e, err := New(g.KB, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.Stats().Replicas; got != tc.want {
				t.Errorf("GOMAXPROCS %d, %d option(s): %d replicas, want %d", procs, len(tc.opts), got, tc.want)
			}
			e.Close()
		}
	}
}

// TestEngineServesLockstep: the replica configuration cannot select the
// machine package's goroutine-per-cluster reference engine. Asked for it
// by option, or handed a whole machine.Config with Deterministic turned
// off, the engine still builds lockstep replicas and a lockstep writer —
// so a repeat is a result-cache hit and the reported time is the
// sequential lockstep machine's.
func TestEngineServesLockstep(t *testing.T) {
	g := fig15KB(t, 400)
	src := inheritanceQuery(g, queryConcepts(g, 1)[0])
	reference := machine.PaperConfig()
	reference.Deterministic = false
	for name, opt := range map[string]machine.Option{
		"WithDeterministic(false)": machine.WithDeterministic(false),
		"PaperConfig wholesale":    reference,
	} {
		t.Run(name, func(t *testing.T) {
			e, err := New(g.KB, WithReplicas(2), WithWrites(true), WithMachineOptions(opt))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i, m := range append(e.machines, e.writer) {
				if !m.Config().Deterministic {
					t.Fatalf("machine %d (replicas, then the writer) is not lockstep", i)
				}
			}
			want := sequentialReference(t, e, []string{src})[src]
			for i := 0; i < 2; i++ {
				res, err := e.SubmitSource(context.Background(), src)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Time.String(); got != want.time || !sameNames(res.Names(0), want.names) {
					t.Errorf("submission %d: %v at %s, want %v at %s", i, res.Names(0), got, want.names, want.time)
				}
			}
			if st := e.Stats(); st.Completed != 1 || st.ResultHits != 1 {
				t.Errorf("completed %d, result hits %d; want one run and one hit", st.Completed, st.ResultHits)
			}
		})
	}
}

// TestCloseLeavesNoGoroutines: whatever traffic an engine served —
// solo, batched, written, and a batch whose caller left while its
// members were running — Close returns the process to the goroutine
// count it had before New.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, writes := range []bool{false, true} {
		t.Run(fmt.Sprintf("lockstep=true/writes=%v", writes), func(t *testing.T) {
			g := fig15KB(t, 800)
			concepts := queryConcepts(g, 8)
			before := runtime.NumGoroutine()
			e, err := New(g.KB, WithReplicas(3), WithWrites(writes), WithResultCache(0))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			compile := func(src string) *isa.Program {
				p, err := e.Compile(src)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}

			var wg sync.WaitGroup
			for _, c := range concepts {
				wg.Add(1)
				go func(c string) {
					defer wg.Done()
					if _, err := e.SubmitSource(ctx, inheritanceQuery(g, c)); err != nil {
						t.Errorf("submit: %v", err)
					}
				}(c)
			}
			batch := make([]*isa.Program, len(concepts))
			for i, c := range concepts {
				batch[i] = compile(inheritanceQuery(g, c))
			}
			if _, errs := e.SubmitBatch(ctx, batch); errors.Join(errs...) != nil {
				t.Errorf("batch: %v", errors.Join(errs...))
			}
			if writes {
				rel := g.KB.Relation("leak-check")
				for _, p := range []*isa.Program{
					isa.NewProgram().Create(g.Leaves[0], rel, 1, g.Leaves[1]),
					isa.NewProgram().Delete(g.Leaves[0], rel, g.Leaves[1]),
				} {
					if _, err := e.SubmitWrite(ctx, p); err != nil {
						t.Errorf("write: %v", err)
					}
				}
			}
			wg.Wait()

			// A batch of long queries whose caller gives up while they
			// occupy the replicas.
			gone, cancel := context.WithCancel(ctx)
			heavy := make([]*isa.Program, 6)
			for i := range heavy {
				heavy[i] = compile(heavyQuery(concepts[i], 10000))
			}
			left := make(chan []error, 1)
			go func() {
				_, errs := e.SubmitBatch(gone, heavy)
				left <- errs
			}()
			for deadline := time.Now().Add(10 * time.Second); e.Stats().IdleReplicas == 3; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatal("the heavy batch never reached a replica")
				}
			}
			cancel()
			if err := errors.Join(<-left...); !errors.Is(err, context.Canceled) {
				t.Errorf("the abandoned batch returned %v, want a cancelled member", err)
			}

			closeWithin(t, e, 10*time.Second)
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before New, %d after Close:\n%s",
						before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}

// TestPooledReplicaAnswersLikeFresh is north-star 3 on a pooled replica:
// the same program gets the same rows whether the replica is fresh or
// has just served someone else's query. ClearMarkers between queries
// clears status bits only, so a kernel that set a complex marker's bit
// without writing its registers answered with the previous caller's
// value and origin (machine.TestUsedReplicaMatchesFresh has the
// kernel-by-kernel cases). One replica and no result cache, so the
// second submission runs, and runs on the used replica.
func TestPooledReplicaAnswersLikeFresh(t *testing.T) {
	g := fig15KB(t, 800)
	e, err := New(g.KB, WithReplicas(1), WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const query = "not-marker m1=b1 m2=c2\ncollect-node marker=c2\n"
	fresh, err := e.SubmitSource(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitSource(context.Background(), inheritanceQuery(g, queryConcepts(g, 1)[0])); err != nil {
		t.Fatal(err)
	}
	used, err := e.SubmitSource(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Collected(0)) == 0 || len(used.Collected(0)) != len(fresh.Collected(0)) {
		t.Fatalf("fresh replica answered %d rows, used replica %d", len(fresh.Collected(0)), len(used.Collected(0)))
	}
	for i, row := range fresh.Collected(0) {
		if used.Collected(0)[i] != row {
			t.Fatalf("row %d: fresh replica %+v, used replica %+v", i, row, used.Collected(0)[i])
		}
	}
}

// TestEngineResultsCarryNoProfile: no engine answer carries its run's
// trace.Profile — not a miss, a hit, a batch member or a write — while
// Stats' interconnect counters still advance by exactly the messages,
// hops and send bursts of the runs the engine made, as Machine.Run of the
// same programs on a reference machine counts them.
func TestEngineResultsCarryNoProfile(t *testing.T) {
	g := fig15KB(t, 400)
	e, err := New(g.KB, WithReplicas(2), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The reference runs on a second copy of the network, so the write
	// it replays commits to that copy alone.
	refKB := fig15KB(t, 400).KB
	ref, err := machine.New(e.cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.LoadKB(refKB); err != nil {
		t.Fatal(err)
	}
	refAsm := isa.NewAssembler(refKB)

	type icn struct{ messages, hops, bursts uint64 }
	counters := func() icn {
		st := e.Stats()
		return icn{st.ICNMessages, st.ICNHops, st.ICNBursts}
	}
	// runOf is what the engine's run of src adds to the counters.
	runOf := func(src string) icn {
		p, err := refAsm.AssembleString(src)
		if err != nil {
			t.Fatal(err)
		}
		ref.ClearMarkers()
		res, err := ref.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return icn{uint64(res.Profile.PropMessages), uint64(res.Profile.PropHops), uint64(res.Profile.SendBursts)}
	}
	check := func(what string, before icn, runs []string, results ...*machine.Result) {
		t.Helper()
		for i, res := range results {
			if res.Profile != nil {
				t.Errorf("%s: result %d carries a Profile", what, i)
			}
		}
		want := before
		for _, src := range runs {
			r := runOf(src)
			want = icn{want.messages + r.messages, want.hops + r.hops, want.bursts + r.bursts}
		}
		if got := counters(); got != want {
			t.Errorf("%s: interconnect counters %+v, want %+v", what, got, want)
		}
	}
	ctx := context.Background()
	concepts := queryConcepts(g, 3)
	compile := func(src string) *isa.Program {
		p, err := e.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	srcs := make([]string, len(concepts))
	for i, c := range concepts {
		srcs[i] = inheritanceQuery(g, c)
	}
	if r := runOf(srcs[0]); r.messages == 0 {
		t.Fatalf("the first query sends no interconnect message: the counters would prove nothing")
	}

	before := counters()
	miss, err := e.Submit(ctx, compile(srcs[0]))
	if err != nil {
		t.Fatal(err)
	}
	check("a miss", before, srcs[:1], miss)

	before = counters()
	hit, err := e.Submit(ctx, compile(srcs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if hit != miss {
		t.Fatal("the repeat was not answered from the result cache")
	}
	check("a hit", before, nil, hit)

	before = counters()
	results, errs := e.SubmitBatch(ctx, []*isa.Program{compile(srcs[1]), compile(srcs[0]), compile(srcs[2])})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch member %d: %v", i, err)
		}
	}
	check("a batch", before, []string{srcs[1], srcs[2]}, results...)

	write := fmt.Sprintf("create src=%s rel=is-a w=1 dst=%s\n", concepts[1], concepts[2]) + srcs[1]
	before = counters()
	wres, err := e.SubmitWrite(ctx, compile(write))
	if err != nil {
		t.Fatal(err)
	}
	check("a write", before, []string{write}, wres)

	if st := e.Stats(); st.ResultHits != 2 || st.Writes != 1 {
		t.Errorf("result hits %d and writes %d, want 2 and 1", st.ResultHits, st.Writes)
	}
}
