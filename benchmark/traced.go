package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"snap1/internal/engine"
	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
	"snap1/internal/semnet"
	"snap1/internal/trace"
)

// snapdDefaultOptions is the engine option list cmd/snapd builds when
// started with `-gen N -domain -seed S -writes` and nothing else. The
// configuration probe compares a query's simulated time between the
// exec'd snapd and an engine built from this list.
func snapdDefaultOptions() []engine.Option {
	return []engine.Option{
		engine.WithReplicas(4),
		engine.WithMaxBatch(8),
		engine.WithQueueCap(256),
		engine.WithCacheCap(128),
		engine.WithResultCache(1024),
		engine.WithMaxInFlight(0),
		engine.WithQueryTimeout(10 * time.Second),
		engine.WithRetryPolicy(engine.RetryPolicy{MaxAttempts: 3}),
		engine.WithFusion(8),
		engine.WithOptLevel(isa.OptFull),
		engine.WithWrites(true),
		engine.WithMachineOptions(replicaOptions()...),
		engine.WithMonitor(perfmon.NewCollector(4096)),
	}
}

// Classes of engine.submit and engine.compile spans.
const (
	classHit   = "hit"
	classCold  = "cold"
	classBatch = "batch"
	classWrite = "write"
)

// tracer re-executes sampled requests of one serve workload in-process
// on one goroutine. Each request is sent once for real over loopback
// (span "request"); then the same input is replayed through the public
// entry of every layer on the path, each call its own span whose parent
// is the span of the layer that makes that call in the real system.
type tracer struct {
	name string
	rec  *recorder
	p    *pools

	eng     *engine.Engine
	handler http.Handler
	srv     *http.Server
	base    string
	client  *http.Client

	// ref is a stand-alone machine with a replica's configuration over
	// its own copy of the network: it stands for the replica that runs a
	// query inside Submit, which cannot be timed from outside.
	ref *oracle
	// follower is loaded from the engine's own KB and only ever patched
	// with ApplyDelta, as a serving replica is by syncReplica.
	follower *machine.Machine

	// replay is off during the untraced baseline pass: requests are sent
	// and timed, nothing is replayed.
	replay       bool
	issued       int // requests sent so far, over both passes: picks pool entries
	hot, cold    int // serve-churn's pool cursors
	variants     int
	class        map[int]string // span ID → class, for submit and compile spans
	pendingDelta bool
	engLinked    bool // the churn link exists in the engine's KB
	refLinked    bool // ... in ref's KB

	prof        trace.Profile // merged profiles of every machine.run
	runOps      int           // queries those runs answered
	respBytes   []float64
	progInstrs  int
	progs       int
	eliminated  int
	planesFreed int
	deltaRecs   int
	deltaMicros float64
}

func newTracer(name string, seed int64, ref *oracle, p *pools) (*tracer, error) {
	g, err := generateKB(seed)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(g.KB, snapdDefaultOptions()...)
	if err != nil {
		return nil, err
	}
	t := &tracer{name: name, rec: newRecorder(name), p: p, eng: eng, ref: ref, class: make(map[int]string)}
	t.handler = engine.NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	t.srv = &http.Server{Handler: t.handler}
	go func() { _ = t.srv.Serve(ln) }() // returns ErrServerClosed from close()
	t.base = "http://" + ln.Addr().String()
	t.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}

	// The follower shares the engine's KB so DeltaRange speaks its
	// generations. No program ever runs on it.
	if t.follower, err = newReplica(g.KB); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tracer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = t.srv.Shutdown(ctx) // on timeout the listener is closed all the same
	t.client.CloseIdleConnections()
	t.eng.Close()
}

// variant renders q with a value no earlier text used: same machine
// cost, different source hash and program hash, so every cache on the
// path misses as it did for the request being replayed.
func (t *tracer) variant(q query) string {
	t.variants++
	return q.render(variantBase + t.variants)
}

// send posts body to the in-process server over loopback.
func (t *tracer) send(path string, body []byte) ([]byte, error) {
	r, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("traced %s: status %d: %s", path, r.StatusCode, b)
	}
	return b, nil
}

// handle is the server.handle replay: the handler run on a recorder, so
// the span holds decode, compile, submit and encode but no socket.
func (t *tracer) handle(parent, req int, path string, body []byte) (int, error) {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	id := t.rec.time("server.handle", parent, req, func() { t.handler.ServeHTTP(w, r) })
	if w.Code != http.StatusOK {
		return id, fmt.Errorf("traced %s replay: status %d: %s", path, w.Code, w.Body)
	}
	return id, nil
}

// runLikeReplica executes prog on m the way Engine.runOne does.
func runLikeReplica(m *machine.Machine, prog *isa.Program, opt *isa.Optimized) (*machine.Result, error) {
	ctx := context.Background()
	if opt == nil || !opt.Changed() {
		return m.RunContext(ctx, prog)
	}
	res, err := m.RunOptimized(ctx, opt.Program)
	if errors.Is(err, machine.ErrOptAmbiguous) {
		m.ClearMarkers()
		return m.RunContext(ctx, prog)
	}
	if err == nil {
		res.RemapInstrs(opt.OrigIndex)
	}
	return res, err
}

// compileReplay is the engine.compile span of a cache miss, with the
// assembler call it makes as its child.
func (t *tracer) compileReplay(parent, req int, text string) error {
	var err error
	c := t.rec.time("engine.compile", parent, req, func() { _, err = t.eng.Compile(text) })
	t.class[c] = classCold
	if err != nil {
		return err
	}
	t.rec.time("isa.assemble", c, req, func() { _, err = t.ref.asm.Assemble(strings.NewReader(text)) })
	return err
}

// prepared is one program ready for the submit replay: compiled by the
// engine (untimed) and assembled against ref's KB for the stand-alone
// calls.
type prepared struct {
	eng, ref *isa.Program
	opt      *isa.Optimized
}

func (t *tracer) prepare(text string) (prepared, error) {
	ep, err := t.eng.Compile(text)
	if err != nil {
		return prepared{}, err
	}
	rp, err := t.ref.asm.Assemble(strings.NewReader(text))
	return prepared{eng: ep, ref: rp}, err
}

// compileTier is the validate and optimize children of a cold submit.
func (t *tracer) compileTier(parent, req int, p *prepared) error {
	var err error
	t.rec.time("isa.validate", parent, req, func() { err = p.ref.Validate() })
	if err != nil {
		return err
	}
	t.rec.time("isa.optimize", parent, req, func() { p.opt = isa.Optimize(p.ref, isa.OptConfig{Level: isa.OptFull}) })
	t.progs++
	t.progInstrs += p.ref.Len()
	t.eliminated += p.opt.InstrsEliminated
	t.planesFreed += p.opt.PlanesFreed
	return nil
}

func (p *prepared) runProg() *isa.Program {
	if p.opt != nil && p.opt.Changed() {
		return p.opt.Program
	}
	return p.ref
}

// deltaReplay is what a replica does at its next batch boundary after a
// commit: fetch the delta and patch its tables. In the real system the
// read being served waits for it inside Submit.
func (t *tracer) deltaReplay(parent, req int) error {
	if !t.pendingDelta {
		return nil
	}
	t.pendingDelta = false
	kb := t.eng.KB()
	from, to := t.follower.KBGeneration(), kb.Generation()
	var recs []semnet.DeltaRec
	var ok bool
	t.rec.time("semnet.delta_range", parent, req, func() { recs, ok = kb.DeltaRange(from, to) })
	if !ok {
		return errors.New("traced run: delta log truncated")
	}
	var err error
	id := t.rec.time("machine.apply_delta", parent, req, func() { err = t.follower.ApplyDelta(recs, to) })
	t.deltaRecs += len(recs)
	t.deltaMicros += t.rec.spans[id-1].micros()
	return err
}

func (t *tracer) noteRun(res *machine.Result, ops int) {
	t.prof.Merge(res.Profile)
	t.runOps += ops
}

// read traces one /v1/query request for pool entry e.
func (t *tracer) read(req int, e *entry) error {
	before := t.eng.Stats()
	var resp []byte
	var err error
	root := t.rec.time("request", 0, req, func() { resp, err = t.send("/v1/query", e.body) })
	if err != nil {
		return err
	}
	if !t.replay {
		return nil
	}
	t.respBytes = append(t.respBytes, float64(len(resp)))
	ctx := context.Background()

	if t.eng.Stats().ResultHits > before.ResultHits {
		// Served from the result cache: compile and submit are both
		// lookups and call nothing below them.
		h, err := t.handle(root, req, "/v1/query", e.body)
		if err != nil {
			return err
		}
		var prog *isa.Program
		c := t.rec.time("engine.compile", h, req, func() { prog, err = t.eng.Compile(e.text) })
		if err != nil {
			return err
		}
		s := t.rec.time("engine.submit", h, req, func() { _, err = t.eng.Submit(ctx, prog) })
		t.class[c], t.class[s] = classHit, classHit
		return err
	}

	h, err := t.handle(root, req, "/v1/query", bodyOf(t.variant(e.q)))
	if err != nil {
		return err
	}
	if err := t.compileReplay(h, req, t.variant(e.q)); err != nil {
		return err
	}
	p, err := t.prepare(t.variant(e.q))
	if err != nil {
		return err
	}
	s := t.rec.time("engine.submit", h, req, func() { _, err = t.eng.Submit(ctx, p.eng) })
	t.class[s] = classCold
	if err != nil {
		return err
	}
	if err := t.deltaReplay(s, req); err != nil {
		return err
	}
	if err := t.compileTier(s, req, &p); err != nil {
		return err
	}
	t.rec.time("machine.clear", s, req, t.ref.m.ClearMarkers)
	var res *machine.Result
	t.rec.time("machine.run", s, req, func() { res, err = runLikeReplica(t.ref.m, p.ref, p.opt) })
	if err != nil {
		return err
	}
	t.noteRun(res, 1)
	return nil
}

// variantBatch renders the eight cold entries of batch i afresh.
func (t *tracer) variantBatch(i int) []string {
	texts := make([]string, batchMembers)
	for j := range texts {
		texts[j] = t.variant(t.p.cold[i*batchMembers+j].q)
	}
	return texts
}

// batch traces one /v1/query/batch request of eight cold members.
func (t *tracer) batch(req, i int) error {
	var resp []byte
	var err error
	root := t.rec.time("request", 0, req, func() { resp, err = t.send("/v1/query/batch", t.p.batches[i]) })
	if err != nil {
		return err
	}
	if !t.replay {
		return nil
	}
	t.respBytes = append(t.respBytes, float64(len(resp)))
	h, err := t.handle(root, req, "/v1/query/batch", batchBody(t.variantBatch(i)))
	if err != nil {
		return err
	}
	for _, text := range t.variantBatch(i) {
		if err := t.compileReplay(h, req, text); err != nil {
			return err
		}
	}
	ps := make([]prepared, batchMembers)
	engProgs := make([]*isa.Program, batchMembers)
	for j, text := range t.variantBatch(i) {
		if ps[j], err = t.prepare(text); err != nil {
			return err
		}
		engProgs[j] = ps[j].eng
	}
	var errs []error
	s := t.rec.time("engine.submit", h, req, func() { _, errs = t.eng.SubmitBatch(context.Background(), engProgs) })
	t.class[s] = classBatch
	if err := errors.Join(errs...); err != nil {
		return err
	}
	runProgs := make([]*isa.Program, batchMembers)
	for j := range ps {
		if err := t.compileTier(s, req, &ps[j]); err != nil {
			return err
		}
		runProgs[j] = ps[j].runProg()
	}
	var f *isa.Fused
	t.rec.time("isa.fuse", s, req, func() { f, err = isa.Fuse(runProgs) })
	if err != nil {
		return fmt.Errorf("traced batch %d does not fuse: %w", i, err)
	}
	t.rec.time("machine.clear", s, req, t.ref.m.ClearMarkers)
	var res *machine.Result
	t.rec.time("machine.run", s, req, func() {
		if res, err = t.ref.m.RunFused(context.Background(), f); err == nil {
			res.Demux(f)
		}
	})
	if err != nil {
		return err
	}
	t.noteRun(res, batchMembers)
	return nil
}

// write traces one /v1/mutate request toggling the first churn link.
// Every engine call really commits, so each one issues whichever of
// create and delete the KB it lands on needs next.
func (t *tracer) write(req int) error {
	link := &t.p.churn[0]
	next := func(linked *bool) (body []byte, text string) {
		defer func() { *linked = !*linked }()
		if *linked {
			return link.delete, link.deleteT
		}
		return link.create, link.createT
	}
	body, _ := next(&t.engLinked)
	var err error
	root := t.rec.time("request", 0, req, func() { _, err = t.send("/v1/mutate", body) })
	if err != nil || !t.replay {
		return err
	}
	body, _ = next(&t.engLinked)
	h, err := t.handle(root, req, "/v1/mutate", body)
	if err != nil {
		return err
	}
	_, text := next(&t.engLinked)
	before := t.eng.Stats().CompileMisses
	var prog *isa.Program
	c := t.rec.time("engine.compile", h, req, func() { prog, err = t.eng.Compile(text) })
	if err != nil {
		return err
	}
	t.class[c] = classHit
	if t.eng.Stats().CompileMisses > before {
		t.class[c] = classCold
		t.rec.time("isa.assemble", c, req, func() { _, err = t.ref.asm.Assemble(strings.NewReader(text)) })
		if err != nil {
			return err
		}
	}
	s := t.rec.time("engine.submit", h, req, func() { _, err = t.eng.SubmitWrite(context.Background(), prog) })
	t.class[s] = classWrite
	if err != nil {
		return err
	}
	_, text = next(&t.refLinked)
	rp, err := t.ref.asm.Assemble(strings.NewReader(text))
	if err != nil {
		return err
	}
	t.rec.time("isa.validate", s, req, func() { err = rp.Validate() })
	if err != nil {
		return err
	}
	t.rec.time("machine.run", s, req, func() { _, err = t.ref.m.RunContext(context.Background(), rp) })
	t.pendingDelta = true
	return err
}

// warm sends what the workload's own warm-up sends that matters on one
// connection: the hot texts, so that they hit.
func (t *tracer) warm() error {
	n := 0
	switch t.name {
	case "serve-hot":
		n = len(t.p.hot)
	case "serve-churn":
		n = churnHotSize
	}
	for i := 0; i < n; i++ {
		if _, err := t.send("/v1/query", t.p.hot[i].body); err != nil {
			return err
		}
	}
	return nil
}

// pass sends n requests of the tracer's workload, following the
// workload's own schedule on one connection and continuing where the
// previous pass stopped, so that no cold text is sent twice.
func (t *tracer) pass(n int) error {
	// The collector runs between traced requests, never inside one: a
	// cycle landing in one replay but not in the call it stands for is
	// what makes children exceed their parents.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for req := 0; req < n; req++ {
		if req%32 == 0 {
			runtime.GC()
		}
		var err error
		i := t.issued
		t.issued++
		switch t.name {
		case "serve-cold":
			err = t.read(req, &t.p.cold[i%len(t.p.cold)])
		case "serve-hot":
			err = t.read(req, &t.p.hot[i%len(t.p.hot)])
		case "serve-batch":
			err = t.batch(req, i%len(t.p.batches))
		default:
			switch k := i + 1; {
			case k%churnPeriod == 0:
				err = t.write(req)
			case k%2 == 1:
				err = t.read(req, &t.p.hot[t.hot%churnHotSize])
				t.hot++
			default:
				err = t.read(req, &t.p.cold[t.cold%len(t.p.cold)])
				t.cold++
			}
		}
		if err != nil {
			return fmt.Errorf("traced request %d: %w", req, err)
		}
	}
	return nil
}

// run is the traced run: n requests untraced, for the baseline the
// tracing overhead is stated against, then n requests traced. It returns
// the baseline's median round trip in microseconds.
func (t *tracer) run(n int) (baseline float64, err error) {
	if err := t.warm(); err != nil {
		return 0, err
	}
	if err := t.pass(n); err != nil {
		return 0, err
	}
	lat := make([]float64, len(t.rec.spans))
	for i := range t.rec.spans {
		lat[i] = t.rec.spans[i].micros()
	}
	t.rec = newRecorder(t.name)
	t.replay = true
	return median(lat), t.pass(n)
}

// allocs counts heap allocations per call of the workload's typical
// entry points, with testing.AllocsPerRun: an exact count where the
// timings beside it are noisy.
func (t *tracer) allocs() (handle, submitCold, run float64, err error) {
	const runs = 10
	first := &t.p.cold[0]
	path := "/v1/query"
	body := func() []byte { return bodyOf(t.variant(first.q)) }
	switch t.name {
	case "serve-hot":
		first = &t.p.hot[0]
		body = func() []byte { return first.body }
	case "serve-batch":
		path = "/v1/query/batch"
		body = func() []byte { return batchBody(t.variantBatch(0)) }
	}
	note := func(e error) {
		if err == nil {
			err = e
		}
	}

	bodies := make([][]byte, runs+1)
	for i := range bodies {
		bodies[i] = body()
	}
	i := 0
	handle = testing.AllocsPerRun(runs, func() {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[i]))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		t.handler.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			note(fmt.Errorf("allocs replay: status %d", w.Code))
		}
		i++
	})

	if t.name != "serve-hot" {
		progs := make([]*isa.Program, runs+1)
		for i := range progs {
			p, e := t.eng.Compile(t.variant(first.q))
			note(e)
			progs[i] = p
		}
		if err != nil {
			return
		}
		i = 0
		submitCold = testing.AllocsPerRun(runs, func() {
			_, e := t.eng.Submit(context.Background(), progs[i])
			note(e)
			i++
		})
	}

	p, e := t.prepare(first.text)
	note(e)
	if err != nil {
		return
	}
	p.opt = isa.Optimize(p.ref, isa.OptConfig{Level: isa.OptFull})
	run = testing.AllocsPerRun(runs, func() {
		t.ref.m.ClearMarkers()
		_, e := runLikeReplica(t.ref.m, p.ref, p.opt)
		note(e)
	})
	return
}

// probeVirtual answers one fresh query in-process and returns its
// simulated time, for comparison with the exec'd snapd's answer to the
// same text.
func (t *tracer) probeVirtual(text string) (int64, error) {
	resp, err := t.send("/v1/query", bodyOf(text))
	if err != nil {
		return 0, err
	}
	v, n := scanVirtual(resp)
	if n != 1 {
		return 0, errors.New("probe answer carries no virtual_ps")
	}
	return v, nil
}
