package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"snap1/internal/fault"
	"snap1/internal/isa"
	"snap1/internal/machine"
)

// The guarantees a batch member has because SubmitBatch is Submit over a
// set: retry under faults, memoization, and admission that does not
// depend on the batch's own size.

// compileAll compiles srcs through e's compile cache.
func compileAll(t *testing.T, e *Engine, srcs []string) []*isa.Program {
	t.Helper()
	progs := make([]*isa.Program, len(srcs))
	for i, src := range srcs {
		var err error
		if progs[i], err = e.Compile(src); err != nil {
			t.Fatal(err)
		}
	}
	return progs
}

// soloReference runs prog on a fresh machine of the engine's replica
// configuration: the per-query ground truth a served query must
// reproduce bit-exactly.
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

// TestSubmitBatchMatchesSolo: a batch member is a solo query in company.
// Eight distinct cold programs admitted together on a single-replica
// engine each come back with the collections and the virtual time of
// their own run on a fresh machine — not a shared run's end — and every
// one is memoized.
func TestSubmitBatchMatchesSolo(t *testing.T) {
	g := fig15KB(t, 1600)
	e, err := New(g.KB, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	concepts := queryConcepts(g, 8)
	srcs := make([]string, len(concepts))
	for i, c := range concepts {
		srcs[i] = inheritanceQuery(g, c)
	}
	progs := compileAll(t, e, srcs)
	results, errs := e.SubmitBatch(context.Background(), progs)
	for i, prog := range progs {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		solo := soloReference(t, e, prog)
		if !reflect.DeepEqual(results[i].Collections, solo.Collections) {
			t.Errorf("member %d: collections diverge from its solo run", i)
		}
		if results[i].Time != solo.Time {
			t.Errorf("member %d: time %v, want its solo run's %v", i, results[i].Time, solo.Time)
		}
		if results[i].Fused {
			t.Errorf("member %d marked Fused", i)
		}
	}
	if st := e.Stats(); st.ResultCacheSize != len(progs) {
		t.Errorf("%d results memoized, want all %d", st.ResultCacheSize, len(progs))
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

// TestBatchRecoversFromInjectedFaults is TestRetryRecoversFromInjectedFaults
// at the batch door: each of two replicas poisons the first run it
// serves, so two members of a four-member batch fail their first attempt
// and must come back as results — bit-identical to the sequential
// reference — not as fault_injected elements.
func TestBatchRecoversFromInjectedFaults(t *testing.T) {
	g := fig15KB(t, 200)
	srcs := make([]string, 0, 4)
	for _, c := range queryConcepts(g, 4) {
		srcs = append(srcs, inheritanceQuery(g, c))
	}
	for _, door := range []struct {
		name string
		// batch answers srcs with one result (names, virtual time) each.
		batch func(t *testing.T, e *Engine) []expectation
	}{
		{"SubmitBatch", func(t *testing.T, e *Engine) []expectation {
			results, errs := e.SubmitBatch(context.Background(), compileAll(t, e, srcs))
			got := make([]expectation, len(srcs))
			for i, res := range results {
				if errs[i] != nil {
					t.Fatalf("member %d did not recover: %v", i, errs[i])
				}
				got[i] = expectation{names: res.Names(0), time: res.Time.String()}
			}
			return got
		}},
		{"POST /v1/query/batch", func(t *testing.T, e *Engine) []expectation {
			srv := httptest.NewServer(NewServer(e))
			defer srv.Close()
			body, _ := json.Marshal(BatchQueryRequest{Programs: srcs})
			resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out BatchQueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != len(srcs) {
				t.Fatalf("%d elements, want %d", len(out.Results), len(srcs))
			}
			got := make([]expectation, len(srcs))
			for i, el := range out.Results {
				if el.Error != nil {
					t.Fatalf("element %d did not recover: %s: %s", i, el.Error.Code, el.Error.Message)
				}
				for _, it := range el.Result.Collections[0].Items {
					got[i].names = append(got[i].names, it.Node)
				}
				sort.Strings(got[i].names) // as Result.Names reports them
				got[i].time = el.Result.VirtualTime
			}
			return got
		}},
	} {
		t.Run(door.name, func(t *testing.T) {
			plan := &fault.Plan{Seed: 42, Rules: []fault.Rule{
				{Site: "icn-drop", Rate: 1, Count: 1},
			}}
			e := resilientEngine(t, g, plan,
				WithReplicas(2),
				WithRetryPolicy(RetryPolicy{MaxAttempts: 6}),
			)
			want := sequentialReference(t, e, srcs)
			for i, got := range door.batch(t, e) {
				if w := want[srcs[i]]; !sameNames(got.names, w.names) || got.time != w.time {
					t.Errorf("member %d differs from sequential: %v / %v, want %v / %v",
						i, got.names, got.time, w.names, w.time)
				}
			}
			st := e.Stats()
			if st.Retries == 0 {
				t.Error("no retries recorded despite guaranteed first-attempt poison")
			}
			if st.RetriesExhausted != 0 {
				t.Errorf("retry budget reported exhausted %d times", st.RetriesExhausted)
			}
		})
	}
}

// TestBatchMembersMemoize: identical members of one batch that miss
// together each run, and one of their Results is memoized — the batches
// after it, and Submit, are result-cache hits on that Result.
func TestBatchMembersMemoize(t *testing.T) {
	g := fig15KB(t, 400)
	e, err := New(g.KB, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p := compileAll(t, e, []string{inheritanceQuery(g, queryConcepts(g, 1)[0])})[0]
	ctx := context.Background()
	var ran []*machine.Result // round 0's members, each its own run
	var memo *machine.Result
	for round := 0; round < 3; round++ {
		results, errs := e.SubmitBatch(ctx, []*isa.Program{p, p})
		for i, res := range results {
			if errs[i] != nil {
				t.Fatalf("round %d member %d: %v", round, i, errs[i])
			}
			if round == 0 {
				ran = append(ran, res)
				continue
			}
			if memo == nil {
				memo = res
			}
			if res != memo {
				t.Errorf("round %d member %d: a second Result for the same query", round, i)
			}
		}
	}
	if memo != ran[0] && memo != ran[1] {
		t.Error("the memoized Result is neither of the first round's runs")
	}
	st := e.Stats()
	if st.Completed != 2 || st.ResultCacheSize != 1 {
		t.Errorf("completed=%d result_cache_size=%d after 3 x {p, p}; want 2, 1",
			st.Completed, st.ResultCacheSize)
	}
	res, err := e.Submit(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if res != memo || e.Stats().Completed != 2 {
		t.Error("Submit after the batches executed again instead of hitting the result cache")
	}
}

// TestBatchLargerThanQueueIsServed: admission bounds what is queued at
// once, not what one call may ask for. On an idle engine a batch of
// twice the queue's capacity is served in pieces; nothing is shed.
func TestBatchLargerThanQueueIsServed(t *testing.T) {
	g := fig15KB(t, 800)
	e, err := New(g.KB, WithReplicas(2), WithQueueCap(4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var srcs []string
	for _, c := range queryConcepts(g, 8) {
		srcs = append(srcs, inheritanceQuery(g, c))
	}
	progs := compileAll(t, e, srcs)
	results, errs := e.SubmitBatch(context.Background(), progs)
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		if solo := soloReference(t, e, progs[i]); !sameNames(res.Names(0), solo.Names(0)) {
			t.Errorf("member %d: %v, want %v", i, res.Names(0), solo.Names(0))
		}
	}
	if st := e.Stats(); st.Overloaded != 0 || st.Submitted != uint64(len(progs)) {
		t.Errorf("overloaded=%d submitted=%d, want 0 and %d", st.Overloaded, st.Submitted, len(progs))
	}
}

// TestReadAfterWriteNeverGetsAnOlderEpoch is monotonic reads at both
// read doors: a query admitted after a write was acknowledged, while an
// identical query still runs on the epoch before it, must answer from
// the write's epoch or a later one, never with the older run's result.
func TestReadAfterWriteNeverGetsAnOlderEpoch(t *testing.T) {
	for _, door := range []struct {
		name   string
		submit func(e *Engine, p *isa.Program) (*machine.Result, error)
	}{
		{"Submit", func(e *Engine, p *isa.Program) (*machine.Result, error) {
			return e.Submit(context.Background(), p)
		}},
		{"SubmitBatch", func(e *Engine, p *isa.Program) (*machine.Result, error) {
			results, errs := e.SubmitBatch(context.Background(), []*isa.Program{p})
			return results[0], errs[0]
		}},
	} {
		t.Run(door.name, func(t *testing.T) {
			fx := newBlockerFixture()
			e, err := New(fx.kb, WithReplicas(1), WithWrites(true))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			// A run of a few hundred milliseconds: the write and the
			// second submission below take well under one.
			slow := fx.blocker(0)
			older := make(chan *machine.Result, 1)
			go func() {
				res, err := e.Submit(context.Background(), slow)
				if err != nil {
					t.Error(err)
				}
				older <- res
			}()
			waitFor(t, "first query running", func() bool { return e.Stats().IdleReplicas == 0 })
			a, _ := fx.kb.Lookup("a")
			b, _ := fx.kb.Lookup("b")
			w, err := e.SubmitWrite(context.Background(), isa.NewProgram().Create(a, fx.kb.Relation("later"), 1, b))
			if err != nil {
				t.Fatal(err)
			}
			res, err := door.submit(e, slow)
			if err != nil {
				t.Fatal(err)
			}
			if old := <-older; old != nil && old.KBGen >= w.KBGen {
				t.Fatalf("first query observed generation %d: it did not run on the epoch before the write's %d", old.KBGen, w.KBGen)
			}
			if res.KBGen < w.KBGen {
				t.Errorf("query admitted after generation %d was acknowledged got a result of generation %d", w.KBGen, res.KBGen)
			}
		})
	}
}
