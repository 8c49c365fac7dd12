package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// Online write-path tests: SubmitWrite admission, epoch publish and
// read-your-writes, conflict classification, cache hygiene at commit,
// and the read/write soak asserting every concurrent read bit-identical
// to a reference machine replayed to the read's observed generation.

// writeTestKB builds a small chain a -is-a-> b -is-a-> c plus a detached
// node d, so a single committed CREATE visibly extends the ancestry.
func writeTestKB(t *testing.T) (*semnet.KB, map[string]semnet.NodeID) {
	t.Helper()
	kb := semnet.NewKB()
	col := kb.ColorFor("concept")
	rel := kb.Relation("is-a")
	ids := map[string]semnet.NodeID{}
	for _, n := range []string{"a", "b", "c", "d"} {
		ids[n] = kb.MustAddNode(n, col)
	}
	kb.MustAddLink(ids["a"], rel, 1, ids["b"])
	kb.MustAddLink(ids["b"], rel, 1, ids["c"])
	return kb, ids
}

func ancestryProg(kb *semnet.KB, from semnet.NodeID) *isa.Program {
	p := isa.NewProgram()
	p.SearchNode(from, 1, 0)
	p.Propagate(1, 2, rules.Path(kb.Relation("is-a")), semnet.FuncAdd)
	p.Barrier()
	p.CollectNode(2)
	return p
}

// TestSubmitWriteDisabled: an engine built without WithWrites refuses
// mutating submissions with the typed sentinel.
func TestSubmitWriteDisabled(t *testing.T) {
	kb, ids := writeTestKB(t)
	e, err := New(kb, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w := isa.NewProgram().Create(ids["c"], kb.Relation("is-a"), 1, ids["d"])
	if _, err := e.SubmitWrite(context.Background(), w); !errors.Is(err, ErrWritesDisabled) {
		t.Fatalf("SubmitWrite on a read-only engine: %v, want ErrWritesDisabled", err)
	}
}

// TestSubmitWriteReadYourWrites: once SubmitWrite returns, every
// subsequently admitted read observes the mutation, and the write
// counters and published generation advance.
func TestSubmitWriteReadYourWrites(t *testing.T) {
	kb, ids := writeTestKB(t)
	e, err := New(kb, WithReplicas(2), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	read := ancestryProg(kb, ids["a"])

	before, err := e.Submit(ctx, read)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(before.Collections[0].Items); n != 2 {
		t.Fatalf("pre-write ancestry has %d nodes, want 2 (b, c)", n)
	}
	gen0 := e.Stats().KBGeneration

	wres, err := e.SubmitWrite(ctx, isa.NewProgram().Create(ids["c"], kb.Relation("is-a"), 1, ids["d"]))
	if err != nil {
		t.Fatal(err)
	}
	if wres.KBGen <= gen0 {
		t.Errorf("write result generation %d not past pre-write %d", wres.KBGen, gen0)
	}

	after, err := e.Submit(ctx, read)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range after.Collections[0].Items {
		if it.Node == ids["d"] {
			found = true
		}
	}
	if !found {
		t.Errorf("post-write read misses the committed link: %+v", after.Collections[0].Items)
	}
	if after.KBGen < wres.KBGen {
		t.Errorf("post-write read observed generation %d, want >= %d", after.KBGen, wres.KBGen)
	}

	st := e.Stats()
	if st.Writes != 1 || st.WriteCommits == 0 {
		t.Errorf("writes=%d commits=%d, want 1 and >0", st.Writes, st.WriteCommits)
	}
	if st.KBGeneration <= gen0 {
		t.Errorf("published generation %d did not advance past %d", st.KBGeneration, gen0)
	}
	synced := false
	for _, m := range e.machines {
		synced = synced || m.KBGeneration() == st.KBGeneration
	}
	if !synced {
		t.Errorf("no replica is at the published generation %d", st.KBGeneration)
	}
}

// TestSubmitWriteConflict: a CREATE on a node whose relation slots are
// full is refused as a conflict — the loaded array cannot split subnodes
// at runtime — and the envelope code is the 409 "conflict".
func TestSubmitWriteConflict(t *testing.T) {
	kb := semnet.NewKB()
	col := kb.ColorFor("concept")
	rel := kb.Relation("r")
	fat := kb.MustAddNode("fat", col)
	targets := make([]semnet.NodeID, semnet.RelationSlots+1)
	for i := range targets {
		targets[i] = kb.MustAddNode(fmt.Sprintf("t%d", i), col)
	}
	// Exactly RelationSlots links: below the preprocessor's split
	// threshold, but the store's slot bank is full.
	for i := 0; i < semnet.RelationSlots; i++ {
		kb.MustAddLink(fat, rel, 1, targets[i])
	}
	e, err := New(kb, WithReplicas(1), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	w := isa.NewProgram().Create(fat, rel, 1, targets[semnet.RelationSlots])
	_, err = e.SubmitWrite(context.Background(), w)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("overflow CREATE: %v, want ErrWriteConflict", err)
	}
	if status, code, retryable := classify(err); status != 409 || code != "conflict" || retryable {
		t.Errorf("conflict classifies as (%d, %q, %v), want (409, conflict, false)", status, code, retryable)
	}
	// The refused write must not have published a new epoch.
	if st := e.Stats(); st.WriteCommits != 0 {
		t.Errorf("refused write published a commit: %+v", st.WriteCommits)
	}
}

// TestWriteSweepsResultCache: a commit evicts every result memoized
// under a superseded generation, so the cache never pins dead epochs.
func TestWriteSweepsResultCache(t *testing.T) {
	kb, ids := writeTestKB(t)
	e, err := New(kb, WithReplicas(1), WithWrites(true), WithResultCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	read := ancestryProg(kb, ids["a"])

	// Memoize, then hit.
	if _, err := e.Submit(ctx, read); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(ctx, read); err != nil {
		t.Fatal(err)
	}
	if e.results.len() == 0 {
		t.Fatal("read was not memoized")
	}
	if _, err := e.SubmitWrite(ctx, isa.NewProgram().Create(ids["c"], kb.Relation("is-a"), 1, ids["d"])); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().ResultGenEvicted; got == 0 {
		t.Error("commit swept no superseded-generation results")
	}
	// The post-write read recomputes under the new generation and must
	// see the mutation (a stale hit would miss node d).
	res, err := e.Submit(ctx, read)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range res.Collections[0].Items {
		if it.Node == ids["d"] {
			found = true
		}
	}
	if !found {
		t.Error("post-write read served a stale cached result")
	}
}

// writerBusy reports whether a write holds the writer: the writes
// pool's one rank is taken for as long as the write runs and publishes.
func writerBusy(e *Engine) bool {
	idle, _ := e.writes.gauges()
	return idle == 0
}

// TestCloseAnswersTheWriteItLetsCommit: a write running when Close comes
// is answered as it ends. Either it commits and its caller is told so,
// or its caller is told ErrClosed and the KB never shows it: a write
// answered ErrClosed that then commits would tell the client it did not
// happen while every later read sees that it did.
func TestCloseAnswersTheWriteItLetsCommit(t *testing.T) {
	fx := newBlockerFixture()
	e, err := New(fx.kb, WithReplicas(1), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := fx.kb.Lookup("a")
	b, _ := fx.kb.Lookup("b")
	// The chain walk keeps the writer busy long enough for Close to come
	// in the middle; the create makes it a commit. On one core the wait
	// below sees the writer busy only once the scheduler preempts the
	// write (≈ 10 ms), so the walk takes several times that.
	slow := fx.walk(0, 5000).Create(a, fx.kb.Relation("r"), 1, b)
	gen0 := fx.kb.Generation()
	done := make(chan error, 1)
	go func() {
		_, err := e.SubmitWrite(context.Background(), slow)
		done <- err
	}()
	waitFor(t, "writer busy", func() bool { return writerBusy(e) })
	closeWithin(t, e, 10*time.Second)
	err = <-done
	switch gen := fx.kb.Generation(); {
	case err == nil && gen > gen0:
	case errors.Is(err, ErrClosed) && gen == gen0:
	default:
		t.Fatalf("the write in progress at Close returned %v with the KB at generation %d (was %d): its answer and the KB disagree", err, gen, gen0)
	}
}

// TestWriteLineIsBounded: with the writer busy, the line of writes
// waiting for it holds writeLineCap; the next write is shed with
// ErrOverloaded and counted once, and the waiters that give up are each
// counted Canceled and never run.
func TestWriteLineIsBounded(t *testing.T) {
	fx := newBlockerFixture()
	e, err := New(fx.kb, WithReplicas(1), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, e, 10*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, writeLineCap+1)
	submit := func(p *isa.Program) {
		go func() {
			_, err := e.SubmitWrite(ctx, p)
			errs <- err
		}()
	}
	submit(fx.blocker(0))
	waitFor(t, "writer busy", func() bool { idle, _ := e.writes.gauges(); return idle == 0 })
	for i := range writeLineCap {
		submit(fx.plain(float32(i + 1)))
	}
	waitFor(t, "line full", func() bool { _, waiting := e.writes.gauges(); return waiting == writeLineCap })
	if _, err := e.SubmitWrite(context.Background(), fx.plain(-1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("a write past a full line returned %v, want ErrOverloaded", err)
	}
	cancel()
	for range writeLineCap + 1 {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Errorf("a write whose caller left returned %v, want context.Canceled", err)
		}
	}
	st := e.Stats()
	if st.Overloaded != 1 || st.Canceled != writeLineCap || st.WriteFailures != 1 || st.Writes != 0 {
		t.Errorf("overloaded %d, canceled %d, write failures %d, writes %d; want 1, %d, 1, 0",
			st.Overloaded, st.Canceled, st.WriteFailures, st.Writes, writeLineCap)
	}
}

// TestReadWriteSoak drives concurrent readers and writers through one
// engine, then proves every read was bit-identical — collections and
// lockstep virtual time — to a reference machine patched forward to
// exactly the generation that read observed. This is the acceptance
// criterion for epoch-versioned serving: a read never sees a torn or
// stale-beyond-its-epoch snapshot.
func TestReadWriteSoak(t *testing.T) {
	g := fig15KB(t, 800)
	// Result cache off so every read actually runs on a replica that
	// adopted the snapshot it observed.
	e, err := New(g.KB,
		WithReplicas(4),
		WithWrites(true),
		WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// The reference starts from the same post-preprocess topology and
	// partition the pool booted from.
	ref, err := machine.New(e.cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.LoadKB(e.kb); err != nil {
		t.Fatal(err)
	}

	kb := g.KB
	gen0 := e.readGen()
	progs := make([]*isa.Program, 0, 4)
	for _, c := range queryConcepts(g, 4) {
		p, err := e.Compile(inheritanceQuery(g, c))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}

	// Distinct per-writer links on low-fanout leaves, toggled
	// create/delete, keep every write conflict-free and the write volume
	// far below the delta log's truncation threshold.
	const writers, togglesPerWriter = 2, 30
	type toggle struct {
		src, dst semnet.NodeID
		rel      semnet.RelType
	}
	toggles := make([]toggle, writers)
	for w := range toggles {
		toggles[w] = toggle{
			src: g.Leaves[w],
			dst: g.Leaves[(w+10)%len(g.Leaves)],
			rel: kb.Relation(fmt.Sprintf("soak-%d", w)),
		}
	}

	type sample struct {
		prog *isa.Program
		gen  uint64
		got  string
	}
	render := func(res *machine.Result) string {
		out := res.Time.String()
		for _, c := range res.Collections {
			for _, it := range c.Items {
				out += fmt.Sprintf("|%d:%d=%v", c.Instr, it.Node, it.Value)
			}
		}
		return out
	}

	const readers, readsPerReader = 4, 40
	samples := make([][]sample, readers)
	ctx := context.Background()
	// The readers start once the first write has committed and published
	// (or a writer has given up), the writers go on once a read has
	// observed that commit (or a reader has given up), and each reader's
	// last read waits for the writers to finish. So the reads observe at
	// least two generations past bring-up — a first commit's and the
	// last's — and what they observe between is left to scheduling: left
	// free, all of them could finish before any write did, or after all.
	gate := func() (chan struct{}, func()) {
		ch := make(chan struct{})
		var once sync.Once
		return ch, func() { once.Do(func() { close(ch) }) }
	}
	firstCommit, committed := gate()
	firstRead, read := gate()
	var writing, wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			defer committed()
			tg := toggles[w]
			for i := 0; i < togglesPerWriter; i++ {
				var p *isa.Program
				if i%2 == 0 {
					p = isa.NewProgram().Create(tg.src, tg.rel, 1, tg.dst)
				} else {
					p = isa.NewProgram().Delete(tg.src, tg.rel, tg.dst)
				}
				if _, err := e.SubmitWrite(ctx, p); err != nil {
					t.Errorf("writer %d toggle %d: %v", w, i, err)
					return
				}
				committed()
				<-firstRead
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer read()
			<-firstCommit
			for i := 0; i < readsPerReader; i++ {
				if i == readsPerReader-1 {
					writing.Wait()
				}
				p := progs[(r+i)%len(progs)]
				res, err := e.Submit(ctx, p)
				if err != nil {
					t.Errorf("reader %d read %d: %v", r, i, err)
					return
				}
				samples[r] = append(samples[r], sample{prog: p, gen: res.KBGen, got: render(res)})
				read()
			}
		}(r)
	}
	writing.Wait()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Replay: advance the reference through the delta log in ascending
	// generation order, running every sample at its observed epoch. The
	// engine adopts snapshots and never replays, so the oracle is an
	// independent implementation of the same topology.
	all := make([]sample, 0, readers*readsPerReader)
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].gen < all[j].gen })
	verified := 0
	for _, s := range all {
		if cur := ref.KBGeneration(); s.gen > cur {
			recs, ok := kb.DeltaRange(cur, s.gen)
			if !ok {
				t.Fatalf("DeltaRange(%d, %d) not ok: soak outran the delta log", cur, s.gen)
			}
			if err := ref.ApplyDelta(recs, s.gen); err != nil {
				t.Fatalf("reference replay to gen %d: %v", s.gen, err)
			}
		} else if s.gen < cur {
			t.Fatalf("sample at gen %d after reference advanced to %d (samples unsorted?)", s.gen, cur)
		}
		ref.ClearMarkers()
		res, err := ref.Run(s.prog)
		if err != nil {
			t.Fatal(err)
		}
		if want := render(res); s.got != want {
			t.Fatalf("read at gen %d diverges from reference:\n got  %s\n want %s", s.gen, s.got, want)
		}
		verified++
	}
	if verified != readers*readsPerReader {
		t.Fatalf("verified %d samples, want %d", verified, readers*readsPerReader)
	}
	st := e.Stats()
	if st.WriteCommits == 0 || st.Writes != writers*togglesPerWriter {
		t.Errorf("writes=%d commits=%d, want %d writes and >0 commits",
			st.Writes, st.WriteCommits, writers*togglesPerWriter)
	}
	past := map[uint64]bool{}
	for _, s := range all {
		if s.gen > gen0 {
			past[s.gen] = true
		}
	}
	if len(past) < 2 {
		t.Errorf("the reads observed %d generations past bring-up (%d), want >= 2", len(past), gen0)
	}
}

// TestFullReloadKeepsTheWritersPartition: a replica that has fallen below
// the delta log's floor adopts the writer's snapshot like any other, and
// the paper's mapping function partitions the network once, at download.
// Partitioning it again after a write moves nodes to other clusters, and
// the replica then answers with other virtual times than its siblings.
// The test names the semantic mapping: round-robin depends only on node
// order, so a write that adds no node could not show a re-partition
// under it.
func TestFullReloadKeepsTheWritersPartition(t *testing.T) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: 12000, Seed: 42, WithDomain: true})
	if err != nil {
		t.Fatal(err)
	}
	kb := g.KB
	e, err := New(kb, WithReplicas(2), WithWrites(true), WithResultCache(-1),
		WithMachineOptions(machine.WithPartition("semantic")))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// One link from the first node with a free slot to the last node, then
	// enough colour toggles on that node to drop the link's record.
	last := semnet.NodeID(kb.NumNodes() - 1)
	src := semnet.NodeID(0)
	for ; ; src++ {
		n, err := kb.Node(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Out) < semnet.RelationSlots {
			break
		}
	}
	ctx := context.Background()
	if _, err := e.SubmitWrite(ctx, isa.NewProgram().Create(src, g.Rel.IsA, 1, last)); err != nil {
		t.Fatal(err)
	}
	n, err := kb.Node(src)
	if err != nil {
		t.Fatal(err)
	}
	colors := [2]semnet.Color{g.Col.Aux, n.Color}
	if colors[0] == colors[1] {
		colors[0] = g.Col.Word
	}
	toggles := isa.NewProgram()
	for i := 0; i < semnet.DefaultDeltaLogCap+2; i++ {
		toggles.SetColor(src, colors[i%2])
	}
	if _, err := e.SubmitWrite(ctx, toggles); err != nil {
		t.Fatal(err)
	}

	m := e.machines[1]
	if _, ok := kb.DeltaRange(m.KBGeneration(), e.readGen()); ok {
		t.Fatal("replica 1 is still above the delta log's floor")
	}
	e.syncReplica(m)
	moved := 0
	for id := 0; id < kb.NumNodes(); id++ {
		if m.ClusterOf(semnet.NodeID(id)) != e.writer.ClusterOf(semnet.NodeID(id)) {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("after the reload %d of %d nodes sit on another cluster than on the writer", moved, kb.NumNodes())
	}
	for _, q := range []struct {
		color semnet.Color
		rel   semnet.RelType
	}{{g.Col.Root, g.Rel.Elem}, {g.Col.Aux, g.Rel.AuxOf}} {
		p := isa.NewProgram()
		p.SearchColor(q.color, 1, 0)
		p.Propagate(1, 2, rules.Path(q.rel), semnet.FuncAdd)
		p.Barrier()
		p.CollectNode(2)
		var got [2]*machine.Result
		for i, r := range []*machine.Machine{e.writer, m} {
			r.ClearMarkers()
			if got[i], err = r.Run(p); err != nil {
				t.Fatal(err)
			}
		}
		if got[0].Time != got[1].Time || fmt.Sprint(got[0].Collections) != fmt.Sprint(got[1].Collections) {
			t.Errorf("search-color %d, path(%d): the writer runs %v, the reloaded replica %v", q.color, q.rel, got[0].Time, got[1].Time)
		}
	}

	// Replica 0 is still below the floor: reads on both replicas beside
	// writes adopt whichever snapshot is published, with no lock.
	read := ancestryProg(kb, src)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := e.Submit(ctx, read); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := e.SubmitWrite(ctx, isa.NewProgram().SetColor(src, colors[i%2])); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}

// TestReadNeverWaitsForAWrite: a replica that has fallen below the delta
// log's floor serves a read while a long write runs, and the read
// returns before the write does. Reads never block on writes: a replica
// adopts the published snapshot with no lock, however far behind it is.
func TestReadNeverWaitsForAWrite(t *testing.T) {
	fx := newBlockerFixture()
	e, err := New(fx.kb, WithReplicas(1), WithWrites(true), WithResultCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, e, 10*time.Second)
	ctx := context.Background()
	b, _ := fx.kb.Lookup("b")
	colors := [2]semnet.Color{fx.kb.ColorFor("other"), fx.kb.ColorFor("seed")}
	toggles := isa.NewProgram()
	for i := 0; i < semnet.DefaultDeltaLogCap+2; i++ {
		toggles.SetColor(b, colors[i%2])
	}
	if _, err := e.SubmitWrite(ctx, toggles); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	wrote := make(chan time.Duration, 1)
	go func() {
		if _, err := e.SubmitWrite(ctx, fx.walk(0, 2000).SetColor(b, colors[0])); err != nil {
			t.Error(err)
		}
		wrote <- time.Since(start)
	}()
	waitFor(t, "writer busy", func() bool { return writerBusy(e) })
	if _, err := e.Submit(ctx, fx.plain(1)); err != nil {
		t.Fatal(err)
	}
	read := time.Since(start)
	select {
	case w := <-wrote:
		t.Fatalf("the read returned after %v, behind the write that ended after %v", read, w)
	default:
	}
	t.Logf("the read returned after %v, the write ended after %v", read, <-wrote)
}

// TestAdoptedSnapshotSurvivesTheNextCommit: a replica that adopted
// generation g answers g bit-identically after the writer has committed
// g+1 over the very store the replica reads. The writer copies a shared
// store before it mutates it, so a published snapshot is never written.
func TestAdoptedSnapshotSurvivesTheNextCommit(t *testing.T) {
	kb, ids := writeTestKB(t)
	e, err := New(kb, WithReplicas(1), WithWrites(true), WithResultCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	isA := kb.Relation("is-a")
	if _, err := e.SubmitWrite(ctx, isa.NewProgram().Create(ids["c"], isA, 1, ids["d"])); err != nil {
		t.Fatal(err)
	}
	read := ancestryProg(kb, ids["a"])
	at, err := e.Submit(ctx, read)
	if err != nil {
		t.Fatal(err)
	}
	m := e.machines[0]
	if g := m.KBGeneration(); g != at.KBGen {
		t.Fatalf("the replica is at generation %d after a read at %d", g, at.KBGen)
	}
	next, err := e.SubmitWrite(ctx, isa.NewProgram().Delete(ids["c"], isA, ids["d"]))
	if err != nil {
		t.Fatal(err)
	}

	m.ClearMarkers()
	again, err := m.Run(read)
	if err != nil {
		t.Fatal(err)
	}
	if again.KBGen != at.KBGen || again.Time != at.Time || fmt.Sprint(again.Collections) != fmt.Sprint(at.Collections) {
		t.Errorf("after the commit of generation %d the replica answers\n %d %v %v\nwhere it answered\n %d %v %v",
			next.KBGen, again.KBGen, again.Time, again.Collections, at.KBGen, at.Time, at.Collections)
	}
	now, err := e.Submit(ctx, read)
	if err != nil {
		t.Fatal(err)
	}
	if now.KBGen != next.KBGen || len(now.Collections[0].Items) != len(at.Collections[0].Items)-1 {
		t.Errorf("the read after the commit observed generation %d with %v, want %d without d", now.KBGen, now.Collections, next.KBGen)
	}
}
