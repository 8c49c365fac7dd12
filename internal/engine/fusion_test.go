package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// soloReference runs prog on a fresh machine of the engine's replica
// configuration: the per-query ground truth a fused run must reproduce
// bit-exactly (collections; virtual time is solo time).
func soloReference(t *testing.T, e *Engine, prog *isa.Program) *machine.Result {
	t.Helper()
	m, err := machine.New(e.cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.LoadKB(e.kb); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSubmitBatchFusesAndMatchesSolo pins the fusion contract end to
// end: a batch of independent queries admitted together on a
// single-replica engine is served by one fused machine run, every
// member's collections are bit-identical to its solo execution, and
// every member reports the fused run's end time.
func TestSubmitBatchFusesAndMatchesSolo(t *testing.T) {
	g := fig15KB(t, 1600)
	e, err := New(g.KB, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	concepts := queryConcepts(g, 4)
	progs := make([]*isa.Program, len(concepts))
	solo := make([]*machine.Result, len(concepts))
	for i, c := range concepts {
		progs[i], err = e.Compile(inheritanceQuery(g, c))
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = soloReference(t, e, progs[i])
	}

	results, errs := e.SubmitBatch(context.Background(), progs)
	for i := range progs {
		if errs[i] != nil {
			t.Fatalf("batch element %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i].Collections, solo[i].Collections) {
			t.Errorf("element %d: fused collections diverge from solo run", i)
		}
	}

	st := e.Stats()
	if st.FusedBatches == 0 {
		t.Fatalf("no fused run: stats %+v", st.FusionRejects)
	}
	if st.FusedQueries != uint64(len(progs)) {
		t.Errorf("fused queries = %d, want %d", st.FusedQueries, len(progs))
	}
	if st.ResultCacheSize != 0 {
		t.Errorf("%d fused results memoized; a fused time is not solo-reproducible, at either door", st.ResultCacheSize)
	}
	if !results[0].Fused {
		t.Error("result not marked Fused")
	}
	for i := 1; i < len(results); i++ {
		if results[i].Time != results[0].Time {
			t.Errorf("member %d time %v != member 0 time %v (all must report the fused end)",
				i, results[i].Time, results[0].Time)
		}
	}
}

// TestSubmitBatchFusionDisabled pins the opt-out: with fusion off the
// same batch runs solo, and every member's result — virtual time
// included — is bit-identical to a sequential machine run.
func TestSubmitBatchFusionDisabled(t *testing.T) {
	g := fig15KB(t, 800)
	e, err := New(g.KB, WithReplicas(1), WithFusion(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	concepts := queryConcepts(g, 3)
	progs := make([]*isa.Program, len(concepts))
	for i, c := range concepts {
		progs[i], err = e.Compile(inheritanceQuery(g, c))
		if err != nil {
			t.Fatal(err)
		}
	}
	results, errs := e.SubmitBatch(context.Background(), progs)
	for i := range progs {
		if errs[i] != nil {
			t.Fatalf("element %d: %v", i, errs[i])
		}
		solo := soloReference(t, e, progs[i])
		if results[i].Time != solo.Time {
			t.Errorf("element %d: time %v != solo %v", i, results[i].Time, solo.Time)
		}
		if !reflect.DeepEqual(results[i].Collections, solo.Collections) {
			t.Errorf("element %d: collections diverge from solo run", i)
		}
		if results[i].Fused {
			t.Errorf("element %d marked Fused with fusion disabled", i)
		}
	}
	if st := e.Stats(); st.FusedBatches != 0 {
		t.Errorf("fused batches = %d with fusion disabled", st.FusedBatches)
	}
}

// TestSubmitBatchPerElementErrors: invalid members fail individually
// with their own typed error; valid members are still served.
func TestSubmitBatchPerElementErrors(t *testing.T) {
	g := fig15KB(t, 400)
	e, err := New(g.KB, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	good, err := e.Compile(inheritanceQuery(g, queryConcepts(g, 1)[0]))
	if err != nil {
		t.Fatal(err)
	}
	mut := isa.NewProgram()
	mut.SearchColor(g.KB.ColorFor("concept"), 0, 1)
	mut.SetColor(0, g.KB.ColorFor("concept"))

	results, errs := e.SubmitBatch(context.Background(), []*isa.Program{mut, good})
	if !errors.Is(errs[0], ErrMutatingProgram) {
		t.Errorf("mutating element error = %v, want ErrMutatingProgram", errs[0])
	}
	if results[0] != nil {
		t.Error("mutating element returned a result")
	}
	if errs[1] != nil || results[1] == nil {
		t.Errorf("valid element failed: %v", errs[1])
	}
}

// TestFusionAmbiguityFallsBackToSolo: two queries whose propagation
// waves deliver equal final values from different origins to one node
// trip the machine's runtime ambiguity detector; the engine must fall
// back to solo execution and still answer both correctly.
func TestFusionAmbiguityFallsBackToSolo(t *testing.T) {
	kb := semnet.NewKB()
	r := kb.Relation("r")
	c := kb.ColorFor("seed")
	a := kb.MustAddNode("a", c)
	b := kb.MustAddNode("b", c)
	mid := kb.MustAddNode("mid", kb.ColorFor("other"))
	kb.MustAddLink(a, r, 1, mid)
	kb.MustAddLink(b, r, 1, mid)

	// No result cache, so no singleflight: the two members are the same
	// program, and both must reach the replica.
	e, err := New(kb, WithReplicas(1), WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	mkProg := func() *isa.Program {
		p := isa.NewProgram()
		p.SearchColor(c, 0, 0)
		p.Propagate(0, 1, rules.Path(r), semnet.FuncAdd)
		p.Barrier()
		p.CollectNode(1)
		return p
	}
	progs := []*isa.Program{mkProg(), mkProg()}
	solo := soloReference(t, e, progs[0])

	results, errs := e.SubmitBatch(context.Background(), progs)
	for i := range progs {
		if errs[i] != nil {
			t.Fatalf("element %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i].Collections, solo.Collections) {
			t.Errorf("element %d: fallback collections diverge from solo", i)
		}
	}
	st := e.Stats()
	if st.FusedBatches != 0 {
		t.Errorf("ambiguous batch counted as fused (%d)", st.FusedBatches)
	}
	if st.FusionRejects["ambiguous"] == 0 {
		t.Errorf("no ambiguity reject counted: %v", st.FusionRejects)
	}
}

// TestConcurrentFusedSubmitsMatchSequential drives the default
// (fusion-enabled, cache-disabled) engine with concurrent distinct
// queries: whatever mix of fused and solo rounds the scheduler
// produces, every answer's collections must match the sequential
// reference.
func TestConcurrentFusedSubmitsMatchSequential(t *testing.T) {
	g := fig15KB(t, 1600)
	e, err := New(g.KB, WithReplicas(2), WithMaxBatch(8), WithResultCache(0))
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

// tieFixture is the two-origin tie network of
// TestFusionAmbiguityFallsBackToSolo — seeds a and b, each one
// equal-weight link from mid — plus a 250-node chain for a long-running
// blocker query. tie(v) is a query whose fused run trips the machine's
// origin-tie detector (distinct v, distinct program hash); plain(v)
// seeds only a, so it fuses cleanly.
type tieFixture struct {
	kb                  *semnet.KB
	tie, plain, blocker func(v float32) *isa.Program
}

func newTieFixture() *tieFixture {
	kb := semnet.NewKB()
	r, next := kb.Relation("r"), kb.Relation("next")
	seed, other := kb.ColorFor("seed"), kb.ColorFor("other")
	a := kb.MustAddNode("a", seed)
	b := kb.MustAddNode("b", seed)
	mid := kb.MustAddNode("mid", other)
	kb.MustAddLink(a, r, 1, mid)
	kb.MustAddLink(b, r, 1, mid)
	head := kb.MustAddNode("chain-000", other)
	for i, prev := 1, head; i < 250; i++ {
		n := kb.MustAddNode(fmt.Sprintf("chain-%03d", i), other)
		kb.MustAddLink(prev, next, 1, n)
		prev = n
	}

	query := func(search func(p *isa.Program)) *isa.Program {
		p := isa.NewProgram()
		search(p)
		p.Propagate(0, 1, rules.Path(r), semnet.FuncAdd)
		p.Barrier()
		p.CollectNode(1)
		return p
	}
	blocker := func(v float32) *isa.Program {
		p := isa.NewProgram()
		p.SearchNode(head, 0, v)
		for i := 0; i < 20000; i++ {
			p.Propagate(0, 1, rules.Path(next), semnet.FuncAdd)
		}
		p.CollectNode(1)
		return p
	}

	return &tieFixture{
		kb: kb,
		tie: func(v float32) *isa.Program {
			return query(func(p *isa.Program) { p.SearchColor(seed, 0, v) })
		},
		plain: func(v float32) *isa.Program {
			return query(func(p *isa.Program) { p.SearchNode(a, 0, v) })
		},
		blocker: blocker,
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
// replica wedged on an answer nobody will read never leaves its round.
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

// TestFusedFallbackSkipsCancelledMember is the regression test for a
// replica wedged by a fused group's fallback: a round [live, cancelled,
// live] whose fused run trips the tie detector re-runs solo, and the
// member whose caller had already left (answered once, at the head of
// the round) must not be answered again — its one-slot response channel
// is full and nobody reads it. Every live member is answered with its
// solo collections, each request's queue wait is observed once, a
// following Submit is served, and Close returns.
func TestFusedFallbackSkipsCancelledMember(t *testing.T) {
	fx := newTieFixture()
	e, err := New(fx.kb, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, e, 10*time.Second)

	type answer struct {
		res *machine.Result
		err error
	}
	submit := func(ctx context.Context, p *isa.Program) chan answer {
		ch := make(chan answer, 1)
		go func() {
			res, err := e.Submit(ctx, p)
			ch <- answer{res, err}
		}()
		return ch
	}

	// Hold the one replica busy so the next three submissions queue up
	// and are drained as one round.
	blockCtx, unblock := context.WithCancel(context.Background())
	defer unblock()
	blocked := submit(blockCtx, fx.blocker(0))
	waitFor(t, "blocker running", func() bool { st := e.Stats(); return st.IdleReplicas == 0 && st.QueueDepth == 0 })

	progs := []*isa.Program{fx.tie(0), fx.tie(1), fx.tie(2)}
	first := submit(context.Background(), progs[0])
	waitFor(t, "first member queued", func() bool { return e.Stats().QueueDepth == 1 })
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Submit(gone, progs[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled submit returned %v, want context.Canceled", err)
	}
	last := submit(context.Background(), progs[2])
	waitFor(t, "round queued", func() bool { return e.Stats().QueueDepth == 3 })
	unblock()
	if a := <-blocked; !errors.Is(a.err, context.Canceled) {
		t.Fatalf("blocker returned %v, want context.Canceled (it must outlast the queueing)", a.err)
	}

	for i, ch := range []chan answer{0: first, 2: last} {
		if ch == nil {
			continue
		}
		select {
		case a := <-ch:
			if a.err != nil {
				t.Fatalf("member %d: %v", i, a.err)
			}
			if solo := soloReference(t, e, progs[i]); !reflect.DeepEqual(a.res.Collections, solo.Collections) {
				t.Errorf("member %d: fallback collections diverge from solo", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("member %d never answered: replica wedged", i)
		}
	}
	if _, err := e.Submit(context.Background(), fx.tie(3)); err != nil {
		t.Fatalf("submit after the fallback round: %v", err)
	}

	st := e.Stats()
	if st.FusionRejects["ambiguous"] == 0 || st.FusedBatches != 0 {
		t.Errorf("round did not fall back from a fused run: rejects %v, fused batches %d", st.FusionRejects, st.FusedBatches)
	}
	if st.QueueWait.Count != st.Submitted {
		t.Errorf("queue wait observed %d times for %d requests", st.QueueWait.Count, st.Submitted)
	}
}

// TestGroupOfOneAndGroupOfNShareAccounting: a query is counted the same
// way — one completion, one run observation, one queue-wait observation
// — whether it was served as a group of one, as a member of a fused
// group, or as a member of a fused group that fell back.
func TestGroupOfOneAndGroupOfNShareAccounting(t *testing.T) {
	fx := newTieFixture()
	const n = 3
	for _, tc := range []struct {
		name         string
		opts         []Option
		prog         func(v float32) *isa.Program
		fusedBatches uint64
	}{
		{"solo", []Option{WithFusion(1)}, fx.plain, 0},
		{"fused", nil, fx.plain, 1},
		{"fused-then-fallen-back", nil, fx.tie, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(fx.kb, append([]Option{WithReplicas(1)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			progs := make([]*isa.Program, n)
			for i := range progs {
				progs[i] = tc.prog(float32(i))
			}
			results, errs := e.SubmitBatch(context.Background(), progs)
			for i := range progs {
				if errs[i] != nil {
					t.Fatalf("element %d: %v", i, errs[i])
				}
				if solo := soloReference(t, e, progs[i]); !reflect.DeepEqual(results[i].Collections, solo.Collections) {
					t.Errorf("element %d: collections diverge from solo", i)
				}
			}
			st := e.Stats()
			if st.FusedBatches != tc.fusedBatches {
				t.Errorf("fused batches = %d, want %d (rejects %v)", st.FusedBatches, tc.fusedBatches, st.FusionRejects)
			}
			if st.Submitted != n || st.Completed != n || st.Failed != 0 || st.Run.Count != n || st.QueueWait.Count != n {
				t.Errorf("submitted %d completed %d failed %d run observations %d queue-wait observations %d, want %d/%d/0/%d/%d",
					st.Submitted, st.Completed, st.Failed, st.Run.Count, st.QueueWait.Count, n, n, n, n)
			}
		})
	}
}
