package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"snap1/internal/isa"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// hitBytes answers q as the handlers do and holds the bytes to a fresh
// encode of the same Result and to encoding/json of QueryResponse.
func hitBytes(t *testing.T, e *Engine, what string, q query, wall time.Duration) []byte {
	t.Helper()
	if q.err != nil {
		t.Fatalf("%s: %v", what, q.err)
	}
	got, err := e.appendAnswer(nil, &q, wall)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	fresh, err := e.appendQueryResponse(nil, q.prog, q.res, wall)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Errorf("%s:\n hit   %s\n fresh %s", what, got, fresh)
	}
	if want := encodingJSON(t, e.queryResponse(q.prog, q.res, wall)); !bytes.Equal(append(got, '\n'), want) {
		t.Errorf("%s:\n hit  %s\n json %s", what, got, want)
	}
	return got
}

// solo is one Submit as /v1/query makes it.
func solo(e *Engine, p *isa.Program) query {
	q := query{prog: p}
	q.hit, q.res, q.err = e.submit(context.Background(), p)
	return q
}

// TestMemoHitMatchesEncodingJSON: a result-cache hit's answer is the
// bytes the encoder writes for its Result — on the entry's first hit
// (which fills the memo), on later hits (which copy it, with their own
// wall_us), for a batch member, after a commit publishes a generation
// that renames what the answer shows, and through ServeHTTP. A miss does
// not fill the memo.
func TestMemoHitMatchesEncodingJSON(t *testing.T) {
	kb, ids := wireTestKB(t)
	e, err := New(kb, WithReplicas(2), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	isA := kb.Relation("is-a")
	colors := isa.NewProgram().SearchNode(ids["hub"], 1, 0).
		Propagate(1, 2, rules.Path(isA), semnet.FuncAdd).Barrier().CollectColor(2).CollectNode(2)
	links := isa.NewProgram().SearchNode(ids["plain"], 1, 1).CollectRelation(1, kb.Relation(`rel"<x>`))

	miss := solo(e, colors)
	if miss.hit != nil {
		t.Fatal("the first submission hit")
	}
	entry, ok := e.results.get(resultKey{colors.Hash(), miss.res.KBGen})
	if !ok || entry.res != miss.res || entry.prog != colors {
		t.Fatal("the miss did not leave its answer in the result cache")
	}
	if entry.wire.Load() != nil {
		t.Error("a miss filled the memo; only a hit may")
	}
	hitBytes(t, e, "miss", miss, time.Millisecond)

	first := solo(e, colors)
	if first.hit != entry || first.res != miss.res {
		t.Fatalf("the repeat was not answered by the cache entry: %+v", first)
	}
	hitBytes(t, e, "first hit", first, 1234567*time.Nanosecond)
	memo := entry.wire.Load()
	if memo == nil {
		t.Fatal("the first hit left no memo")
	}
	hitBytes(t, e, "later hit", solo(e, colors), 89*time.Microsecond)
	if entry.wire.Load() != memo {
		t.Error("a later hit encoded the answer again")
	}

	// A batch: one member hits, one misses, one repeats the miss.
	qs := e.submitBatch(context.Background(), []*isa.Program{links, colors, links})
	if qs[1].hit != entry || qs[0].hit != nil {
		t.Fatalf("batch members: hit %p, %p; want nil, %p", qs[0].hit, qs[1].hit, entry)
	}
	var want BatchQueryResponse
	for i := range qs {
		hitBytes(t, e, "batch member", qs[i], time.Second)
		resp := e.queryResponse(qs[i].prog, qs[i].res, time.Second)
		want.Results = append(want.Results, BatchElement{Result: &resp})
	}
	if got, w := e.appendBatchResponse(nil, make([]error, len(qs)), qs, time.Second), encodingJSON(t, want); !bytes.Equal(got, w) {
		t.Errorf("batch:\n wire %s\n json %s", got, w)
	}
	hitBytes(t, e, "hit after a batch miss", solo(e, links), time.Second)

	// Commits: a new link and a colour name the KB has never had. The
	// old entry goes with its generation; the new one answers with the
	// new names.
	before := hitBytes(t, e, "hit before commit", solo(e, colors), 0)
	for _, src := range []string{"set-color node=leaf0 color=brand-new<colour>", "create src=hub rel=is-a w=2 dst=plain"} {
		w, err := e.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.SubmitWrite(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := e.results.get(resultKey{colors.Hash(), miss.res.KBGen}); ok {
		t.Error("the commit left the old generation's entry")
	}
	if q := solo(e, colors); q.hit != nil {
		t.Fatal("the first read after the commits hit")
	}
	after := hitBytes(t, e, "hit after commit", solo(e, colors), 0)
	if bytes.Equal(before, after) || !bytes.Contains(after, []byte(`brand-new\u003ccolour\u003e`)) {
		t.Errorf("the answer after the commits does not show them:\n before %s\n after  %s", before, after)
	}

	// Through the handler: a miss, a first hit and a later hit are one
	// answer but for wall_us.
	h := NewServer(e)
	body, _ := json.Marshal(QueryRequest{Program: "search-node node=hub marker=c1 value=0\npropagate m1=c1 m2=c2 rule=path(is-a) fn=add\ncollect-color marker=c2\n"})
	wallField := regexp.MustCompile(`"wall_us":[0-9]+`)
	var answers [][]byte
	for i := 0; i < 3; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, w.Code, w.Body)
		}
		answers = append(answers, wallField.ReplaceAll(w.Body.Bytes(), []byte(`"wall_us":0`)))
	}
	if !bytes.Equal(answers[0], answers[1]) || !bytes.Equal(answers[0], answers[2]) {
		t.Errorf("miss, first hit and later hit differ:\n %s\n %s\n %s", answers[0], answers[1], answers[2])
	}
	if st := e.Stats(); st.ResultHits == 0 {
		t.Error("no result hits counted")
	}
}

// TestMemoAfterEviction: an entry the LRU pushed out takes its memo with
// it; the query's next miss makes a fresh entry, whose first hit encodes
// again.
func TestMemoAfterEviction(t *testing.T) {
	kb, ids := wireTestKB(t)
	e, err := New(kb, WithReplicas(1), WithResultCache(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	isA := kb.Relation("is-a")
	progs := make([]*isa.Program, 3)
	for i := range progs {
		progs[i] = isa.NewProgram().SearchNode(ids["hub"], 1, float32(i)).
			Propagate(1, 2, rules.Path(isA), semnet.FuncAdd).Barrier().CollectNode(2)
	}
	solo(e, progs[0])
	old := solo(e, progs[0])
	hitBytes(t, e, "first hit", old, time.Millisecond)
	if old.hit == nil || old.hit.wire.Load() == nil {
		t.Fatal("no memo after the first hit")
	}
	solo(e, progs[1])
	solo(e, progs[2])
	if _, ok := e.results.get(resultKey{progs[0].Hash(), old.res.KBGen}); ok {
		t.Fatal("two newer entries did not evict the oldest of a 2-entry cache")
	}
	if q := solo(e, progs[0]); q.hit != nil {
		t.Fatal("an evicted entry answered")
	}
	hit := solo(e, progs[0])
	if hit.hit == nil || hit.hit == old.hit {
		t.Fatalf("after eviction the hit came from %p, the evicted entry was %p", hit.hit, old.hit)
	}
	if hit.hit.wire.Load() != nil {
		t.Error("the new entry has a memo before its first hit")
	}
	if !bytes.Equal(hitBytes(t, e, "hit after eviction", hit, time.Millisecond), hitBytes(t, e, "old entry", old, time.Millisecond)) {
		t.Error("the same query answers differently after eviction")
	}
}

// TestMemoFirstHitsRace: first hits that race on one entry each encode
// or copy; every answer is the same bytes, and one memo is kept (run it
// under -race).
func TestMemoFirstHitsRace(t *testing.T) {
	e, cases := wireCorpus(t)
	for _, c := range cases {
		if c.name == "hand-built" {
			continue
		}
		a := &answer{prog: c.prog, res: c.res}
		want, err := e.appendQueryResponse(nil, c.prog, c.res, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		const racers = 8
		got, errs := make([][]byte, racers), make([]error, racers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i], errs[i] = e.appendHit(nil, a, time.Millisecond)
			}(i)
		}
		close(start)
		wg.Wait()
		for i := range got {
			if errs[i] != nil || !bytes.Equal(got[i], want) {
				t.Errorf("%s: racer %d:\n hit   %s\n fresh %s", c.name, i, got[i], want)
			}
		}
		if a.wire.Load() == nil {
			t.Errorf("%s: no memo kept", c.name)
		}
	}
}

// A 64-bit hash keys both caches. The two tests below plant what a colliding body would leave behind — another
// program's entry under this program's key — and require that nobody is
// served what they did not ask for.

// TestCompileCacheChecksSource: a compile-cache entry under the key of
// src that was compiled from another source is a miss for src.
func TestCompileCacheChecksSource(t *testing.T) {
	kb, _ := writeTestKB(t)
	e, err := New(kb, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const a = "search-node node=a marker=c1 value=0\ncollect-node marker=c1\n"
	const b = "search-node node=d marker=c1 value=0\ncollect-node marker=c1\n"
	progB, err := e.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	e.cache.put(sourceHash(a), compiled{src: b, prog: progB})
	hits := e.Stats().CompileHits
	progA, err := e.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	if progA == progB || e.Stats().CompileHits != hits {
		t.Fatal("compiling a was answered with b's program")
	}
	res, err := e.SubmitSource(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Names(0); len(got) != 1 || got[0] != "a" {
		t.Fatalf("a answered %v", got)
	}
	if again, _ := e.Compile(a); again != progA {
		t.Error("a's own entry did not replace the planted one")
	}
}

// TestResultCacheChecksProgram: an answer cached under this program's
// hash for another program is not a hit; an equal program built apart
// (another pointer) is.
func TestResultCacheChecksProgram(t *testing.T) {
	kb, ids := writeTestKB(t)
	e, err := New(kb, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	progA, progB := ancestryProg(kb, ids["a"]), ancestryProg(kb, ids["b"])
	resB, err := e.Submit(context.Background(), progB)
	if err != nil {
		t.Fatal(err)
	}
	gen := e.readGen()
	e.results.put(resultKey{progA.Hash(), gen}, &answer{prog: progB, res: resB})
	resA, err := e.Submit(context.Background(), progA)
	if err != nil {
		t.Fatal(err)
	}
	if resA == resB || len(resA.Names(0)) != 2 {
		t.Fatalf("a was answered with b's result: %v", resA.Names(0))
	}
	if st := e.Stats(); st.ResultHits != 0 {
		t.Errorf("%d result hits counted, want 0", st.ResultHits)
	}

	twin := ancestryProg(kb, ids["a"])
	if !sameProgram(twin, progA) || sameProgram(progA, progB) {
		t.Fatal("sameProgram does not tell programs apart by content")
	}
	// The same token bound to another spec is another program; a step
	// with a stray R2 is the plain step.
	isA := kb.Relation("is-a")
	rule := func(spec rules.Spec) *isa.Program {
		p := isa.NewProgram()
		p.SearchNode(ids["a"], 1, 0)
		p.Propagate(1, 2, spec, semnet.FuncAdd)
		return p
	}
	path, spread := rule(rules.Path(isA)), rule(rules.Spread(isA, isA+1))
	if path.Instrs[1] != spread.Instrs[1] || sameProgram(path, spread) {
		t.Error("sameProgram matches two rules under one token")
	}
	step, stray := rule(rules.Step(isA)), rule(rules.Spec{Kind: rules.KindStep, R1: isA, R2: isA + 1})
	if step.Hash() != stray.Hash() || !sameProgram(step, stray) {
		t.Error("a step with a stray R2 is not the plain step")
	}
	if hit, res, err := e.submit(context.Background(), twin); err != nil || hit == nil || res != resA {
		t.Errorf("an equal program built apart missed: hit %p, %v", hit, err)
	}
}

// TestResultCacheEntryBytes fences what a result-cache entry keeps: the
// program it answers, its Result with its rows, and the cache's own
// bookkeeping, but nothing of the run's instrumentation. It fills the
// cache with distinct answers of one known row count, sweeps them out,
// and divides the live heap the sweep frees by the entries. An entry of
// this query's 3 rows read 529 bytes when measured, under the race
// detector too. It read 1 145 with each run's trace.Profile kept, 625
// with the program's rules interned through a map[rules.Spec]Token, and
// 657 with that map and the instruction slice sized from the line count;
// the ceiling fails each of them.
func TestResultCacheEntryBytes(t *testing.T) {
	const entries, ceiling = 512, 600
	g := fig15KB(t, 400)
	e, err := New(g.KB, WithReplicas(1), WithResultCache(entries))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	asm := isa.NewAssembler(g.KB).LookupOnly() // no compile cache holds the programs
	concept := queryConcepts(g, 1)[0]
	rows := -1
	// fill answers entries distinct queries, each a miss whose program
	// only its entry keeps.
	fill := func(first int) {
		for i := first; i < first+entries; i++ {
			p, err := asm.AssembleString(fmt.Sprintf("search-node node=%s marker=c1 value=%d\n"+
				"propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n"+
				"collect-node marker=c2\n", concept, i))
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Submit(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(res.Collected(0)); rows < 0 {
				rows = n
			} else if n != rows {
				t.Fatalf("query %d collects %d rows, the first %d", i, n, rows)
			}
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	sweep := func() int { return e.results.sweep(func(resultKey) bool { return true }) }
	// A first fill and sweep grows the cache's index and warms the
	// replica, so the second measures entries alone.
	fill(0)
	sweep()
	fill(entries)
	if st := e.Stats(); st.ResultMisses != 2*entries || st.ResultHits != 0 {
		t.Fatalf("%d misses and %d hits, want %d and 0", st.ResultMisses, st.ResultHits, 2*entries)
	}
	held := liveHeap()
	if n := sweep(); n != entries {
		t.Fatalf("swept %d entries, want %d", n, entries)
	}
	per := int64(held-liveHeap()) / entries
	t.Logf("a result-cache entry of %d rows holds %d bytes", rows, per)
	if rows < 2 {
		t.Fatalf("the query collects %d rows, want several", rows)
	}
	if per > ceiling {
		t.Errorf("a result-cache entry of %d rows holds %d bytes, want <= %d", rows, per, ceiling)
	}
}
