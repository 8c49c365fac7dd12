// Package engine is the query-serving layer over the SNAP-1 array: the
// role the paper's array controller plays for a terminal room full of
// users, grown to a concurrent serving surface.
//
// An Engine owns a pool of machine replicas that share one preprocessed,
// partitioned knowledge base (downloaded once, then cloned per replica —
// concurrently, over shared-immutable topology tables — without
// re-partitioning). The replicas are bit-identical lockstep machines, so
// there is no affinity to keep and nothing to route: a read takes the
// idle replica released last (pool.go), or waits in line for the next
// one released, and runs on the goroutine that submitted it. Each query
// runs its own program with fresh marker state and honors its context's
// cancellation and deadline between instructions. The request path is
// pipelined:
//
//	assembly → rule/program compilation (LRU-cached by content hash)
//	         → result cache (by Program.Hash + KB generation)
//	         → execution on a pooled replica → collection
//
// A program runs as written: the served answer, virtual time included,
// is Machine.Run of the submitted program on a fresh lockstep replica.
//
// Admission control sheds load instead of queueing without bound: a full
// line of callers waiting for a replica (QueueCap) or a reached in-flight
// ceiling (MaxInFlight) fails fast with ErrOverloaded.
//
// Submit accepts only read-only programs: replicas share the downloaded
// network topology, so topology-mutating instructions (CREATE, DELETE,
// SET-COLOR, MARKER-CREATE, MARKER-DELETE, MARKER-SET-COLOR) are refused
// at submit with ErrMutatingProgram.
//
// With Config.Writes enabled, mutating programs go through SubmitWrite
// instead: one at a time, each on its caller's goroutine, on a writer
// machine over the master KB, and publish epoch-style (writer.go) — the
// KB generation bump retires result-cache entries, and each replica
// adopts the published snapshot of the writer's tables before its next
// run, with no lock, so reads never block on writes and no global pause
// exists.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snap1/internal/fault"
	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// Sentinel errors of the serving surface.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("engine: closed")
	// ErrOverloaded is returned when admission control sheds a query:
	// no replica is idle and the line of callers waiting for one is full
	// (QueueCap), or the in-flight ceiling (MaxInFlight) is reached. Retry after backoff; the HTTP surface
	// maps it to 503 with a Retry-After header.
	ErrOverloaded = errors.New("engine: overloaded")
	// ErrMutatingProgram rejects topology-mutating programs; it wraps
	// isa.ErrBadProgram so errors.Is(err, snap1.ErrBadProgram) holds.
	ErrMutatingProgram = fmt.Errorf("%w: engine: topology-mutating instruction in query", isa.ErrBadProgram)
)

// Config parameterizes an Engine. The zero value of any field selects
// its default.
type Config struct {
	// Replicas is the machine-pool size (default runtime.GOMAXPROCS(0):
	// a replica runs only while a caller holds it, so one per core is
	// all that can run at once).
	Replicas int
	// QueueCap bounds the callers waiting for a replica; a submission
	// that finds no replica idle and the line full fails fast with
	// ErrOverloaded (default 256).
	QueueCap int
	// CacheCap is the compile-cache entry bound (default 128).
	CacheCap int
	// ResultCacheCap bounds the query result cache (default 1024).
	// Negative disables result caching. Identical misses that overlap
	// each run; a memoized Result (virtual time included) is
	// bit-identical to recomputation, because every replica is a
	// lockstep machine.
	ResultCacheCap int
	// MaxInFlight caps admitted-but-unfinished queries (waiting plus
	// executing); submissions beyond it fail fast with ErrOverloaded.
	// 0 means no ceiling beyond QueueCap.
	MaxInFlight int
	// Machine configures every replica. Zero value: the paper's
	// 16-cluster evaluation array. Its Deterministic field is
	// overwritten: replicas and the writer are lockstep machines
	// whatever it says (the goroutine-per-cluster engine is the machine
	// package's reference implementation; nothing serves on it), so
	// identical queries report identical virtual times regardless of
	// which replica serves them, and result caching and
	// retry-after-fault hold for every Engine.
	Machine machine.Config
	// Monitor, when non-nil, receives engine-level performance events
	// (EvQuerySubmit, EvBatchDispatch, EvQueryDone, EvQueryCancel,
	// EvQueryShed, EvResultHit, and the resilience events
	// EvFaultInjected, EvReplicaQuarantined, EvQueryRetried,
	// EvReplicaRestored).
	Monitor *perfmon.Collector
	// QueryTimeout bounds each execution attempt (the wait for a replica
	// plus the run). An attempt that exceeds it fails with
	// context.DeadlineExceeded, counts toward its replica's quarantine
	// (health.go), and is retried under Retry while the caller's context
	// allows. It also bounds a quarantined replica's probe. 0 disables
	// per-attempt deadlines.
	QueryTimeout time.Duration
	// Retry bounds re-execution of retryable failures: runs poisoned by
	// injected faults and per-attempt timeouts (see RetryPolicy).
	Retry RetryPolicy
	// FaultPlan, when non-nil, arms deterministic fault injection on
	// every replica, seeded per replica rank (soak testing).
	FaultPlan *fault.Plan
	// Writes enables the online mutation pipeline: SubmitWrite accepts
	// topology-mutating programs, executed serialized on a dedicated
	// writer machine and published epoch-style; replicas follow by
	// adopting the published snapshot (writer.go). Off by default — a
	// write-disabled engine serves a truly immutable snapshot.
	Writes bool
}

// Validate reports every invalid field of the configuration in one
// wrapped error (errors.Join) rather than stopping at the first, so a
// misconfigured caller learns all problems at once. Zero values are
// valid — they select defaults.
func (c Config) Validate() error {
	var errs []error
	nonNeg := func(name string, v int) {
		if v < 0 {
			errs = append(errs, fmt.Errorf("%s must be >= 0, got %d", name, v))
		}
	}
	nonNeg("Replicas", c.Replicas)
	nonNeg("QueueCap", c.QueueCap)
	nonNeg("CacheCap", c.CacheCap)
	nonNeg("MaxInFlight", c.MaxInFlight)
	if c.QueryTimeout < 0 {
		errs = append(errs, fmt.Errorf("QueryTimeout must be >= 0, got %v", c.QueryTimeout))
	}
	errs = append(errs, c.Retry.validate()...)
	if c.Machine.Clusters != 0 {
		if err := c.Machine.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if c.FaultPlan != nil {
		if err := c.FaultPlan.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("engine: invalid configuration: %w", errors.Join(errs...))
}

// Option refines a Config.
type Option func(*Config)

// WithReplicas sets the machine-pool size; 0 selects one replica per
// core (runtime.GOMAXPROCS(0)).
func WithReplicas(n int) Option { return func(c *Config) { c.Replicas = n } }

// WithMaxBatch does nothing: a replica takes one request at a time.
//
// Deprecated: kept only because benchmark/traced.go still names it; it
// goes when that caller does (ROADMAP item 1a).
func WithMaxBatch(int) Option { return func(*Config) {} }

// WithQueueCap bounds the callers waiting for a replica.
func WithQueueCap(n int) Option { return func(c *Config) { c.QueueCap = n } }

// WithCacheCap sets the compile-cache entry bound.
func WithCacheCap(n int) Option { return func(c *Config) { c.CacheCap = n } }

// WithResultCache sets the query-result-cache entry bound; n <= 0
// disables result caching.
func WithResultCache(n int) Option {
	return func(c *Config) {
		if n <= 0 {
			c.ResultCacheCap = -1
		} else {
			c.ResultCacheCap = n
		}
	}
}

// WithMaxInFlight caps admitted-but-unfinished queries; 0 removes the
// ceiling.
func WithMaxInFlight(n int) Option { return func(c *Config) { c.MaxInFlight = n } }

// WithMachineOptions refines the replica configuration with machine
// options, starting from the engine's default replica configuration. A
// machine.Config is itself an option that replaces it wholesale.
func WithMachineOptions(opts ...machine.Option) Option {
	return func(c *Config) {
		if c.Machine.Clusters == 0 {
			c.Machine = machine.PaperConfig()
		}
		c.Machine = machine.ApplyOptions(c.Machine, opts...)
	}
}

// WithMonitor attaches a performance-collection board.
func WithMonitor(mon *perfmon.Collector) Option {
	return func(c *Config) { c.Monitor = mon }
}

// WithQueryTimeout bounds each execution attempt; 0 disables
// per-attempt deadlines.
func WithQueryTimeout(d time.Duration) Option {
	return func(c *Config) { c.QueryTimeout = d }
}

// WithRetryPolicy sets the retry budget for retryable query failures.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Config) { c.Retry = p }
}

// WithFaultPlan arms deterministic fault injection on every replica.
func WithFaultPlan(p *fault.Plan) Option {
	return func(c *Config) { c.FaultPlan = p }
}

// WithFusion does nothing: every query runs its own program.
//
// Deprecated: kept only because benchmark/traced.go still names it; it
// goes when that caller does (ROADMAP item 1a).
func WithFusion(int) Option { return func(*Config) {} }

// WithOptLevel does nothing: every query runs as written.
//
// Deprecated: kept only because benchmark/traced.go still names it; it
// goes when that caller does (ROADMAP item 1a).
func WithOptLevel(int) Option { return func(*Config) {} }

// WithWrites enables (or disables) the online mutation pipeline:
// SubmitWrite and POST /v1/mutate.
func WithWrites(on bool) Option { return func(c *Config) { c.Writes = on } }

// Engine is a concurrent query-serving layer over a pool of machine
// replicas sharing one knowledge base. Safe for use from any number of
// goroutines.
type Engine struct {
	cfg Config
	kb  *semnet.KB
	mon *perfmon.Collector

	// Names enter the KB only through a door that can commit them: asm
	// (Compile, /v1/mutate) interns a writing operand's new name when the
	// engine has a write path and is readAsm when it has none; readAsm
	// (SubmitSource, /v1/query, /v1/query/batch) only ever looks up.
	asm, readAsm *isa.Assembler

	machines []*machine.Machine // index = replica rank
	health   []*replicaHealth   // index = replica rank
	pool     *pool              // idle replicas and the callers waiting for one
	start    time.Time          // bring-up instant; drain-rate baseline

	inflight atomic.Int64 // admitted and not yet answered

	// life ends at Close (stop); a health probe runs under it.
	life context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup // the health probers

	cache   *lruCache[uint64, compiled]   // assembly-source hash -> sealed program
	results *lruCache[resultKey, *answer] // memoized query answers; nil when disabled

	// Write path (nil unless Config.Writes; see writer.go). writes is
	// the writer's pool: one rank, and the writes waiting for it.
	writer *machine.Machine
	writes *pool

	// snap is the published network: the epoch every new read observes
	// and every replica adopts before it runs. Bring-up stores the first;
	// only a committed write stores another.
	snap atomic.Pointer[machine.Snapshot]

	st stats
}

// New builds an engine over kb: the knowledge base is preprocessed,
// partitioned, and downloaded once into a prototype machine, which is
// then cloned to the remaining pool replicas over shared-immutable
// topology tables. kb must not be mutated externally for the engine's
// lifetime: without Config.Writes it is a frozen snapshot, with it the
// engine's writer is the only legal mutator.
func New(kb *semnet.KB, opts ...Option) (*Engine, error) {
	cfg := Config{}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 128
	}
	if cfg.ResultCacheCap == 0 {
		cfg.ResultCacheCap = 1024
	}
	if cfg.Machine.Clusters == 0 {
		cfg.Machine = machine.PaperConfig()
	}
	cfg.Machine.Deterministic = true
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry.MaxAttempts = 3
	}
	if cfg.Writes {
		// The engine never reads the delta log; benchmark/traced.go's
		// follower replays it from this KB (ROADMAP item 3's log half).
		kb.EnableDeltaLog()
	}
	kb.Preprocess()
	if need := (kb.NumNodes() + cfg.Machine.Clusters - 1) / cfg.Machine.Clusters; need > cfg.Machine.NodesPerCluster {
		cfg.Machine.NodesPerCluster = need
	}

	proto, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	if err := proto.LoadKB(kb); err != nil {
		return nil, err
	}
	machines, err := clonePool(proto, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if cfg.FaultPlan != nil {
		for rank, m := range machines {
			if err := m.SetFaultInjector(cfg.FaultPlan.Injector(rank)); err != nil {
				return nil, err
			}
		}
	}

	e := &Engine{
		cfg:      cfg,
		kb:       kb,
		readAsm:  isa.NewAssembler(kb).LookupOnly(),
		mon:      cfg.Monitor,
		machines: machines,
		health:   make([]*replicaHealth, cfg.Replicas),
		pool:     newPool(cfg.Replicas, cfg.QueueCap),
		start:    time.Now(),
		cache:    newLRUCache[uint64, compiled](cfg.CacheCap),
	}
	e.life, e.stop = context.WithCancel(context.Background())
	if cfg.ResultCacheCap > 0 {
		e.results = newLRUCache[resultKey, *answer](cfg.ResultCacheCap)
	}
	for i := range e.health {
		e.health[i] = &replicaHealth{}
	}
	e.st.Replicas = cfg.Replicas
	e.snap.Store(proto.Publish())

	e.asm = e.readAsm
	if cfg.Writes {
		e.asm = isa.NewAssembler(kb)
		// The dedicated writer is one more topology-sharing clone; it
		// stays out of the serving pool and never arms fault injection,
		// so the master KB's mutation history is exactly the committed
		// write sequence.
		w, err := proto.Clone()
		if err != nil {
			for _, m := range machines {
				m.Close()
			}
			return nil, err
		}
		e.writer = w
		e.writes = newPool(1, writeLineCap)
	}
	return e, nil
}

// clonePool stamps out the replica pool from the loaded prototype, which
// itself serves as replica 0. A clone shares the topology tables and
// allocates only marker state.
func clonePool(proto *machine.Machine, replicas int) ([]*machine.Machine, error) {
	machines := []*machine.Machine{proto}
	for len(machines) < replicas {
		r, err := proto.Clone()
		if err != nil {
			for _, m := range machines {
				m.Close()
			}
			return nil, err
		}
		machines = append(machines, r)
	}
	return machines, nil
}

// KB returns the engine's knowledge base (for name resolution).
func (e *Engine) KB() *semnet.KB { return e.kb }

// readGen is the KB generation a newly admitted read observes: the
// published snapshot's. The master KB may already be ahead inside a
// write not yet published; without writes the epoch never moves.
func (e *Engine) readGen() uint64 { return e.snap.Load().Generation() }

// Submit runs a read-only program on the calling goroutine and returns
// its result, or the context's cancellation/deadline, or ErrClosed after
// shutdown. Each query runs as written on a pool replica with fresh
// marker state; collections and virtual time are identical to a
// sequential Machine.Run of the same program on a fresh machine. With
// result caching active (the default), a repeat of a completed query
// returns the memoized Result — bit-identical, virtual time included;
// identical submissions that miss together each run. The returned Result
// is shared and must be treated as immutable.
func (e *Engine) Submit(ctx context.Context, prog *isa.Program) (*machine.Result, error) {
	_, res, err := e.submit(ctx, prog)
	return res, err
}

// submit is Submit that also returns the result-cache entry when one
// answered the query, so that the HTTP doors can answer a hit from the
// entry's bytes.
func (e *Engine) submit(ctx context.Context, prog *isa.Program) (*answer, *machine.Result, error) {
	gen := e.readGen()
	h, hit, err := e.precheck(prog, gen)
	if hit != nil {
		return hit, hit.res, nil
	}
	if err != nil {
		return nil, nil, err
	}
	q := query{prog: prog, h: h}
	e.resolve(ctx, []*query{&q})
	return nil, q.res, q.err
}

// SubmitBatch is Submit over a set of independent read-only programs:
// the members that miss the result cache are admitted together and run
// on the caller's replica and on every other replica idle at admission.
// Results and errors are positional: errs[i] is non-nil exactly when
// results[i] is nil. Every member has what Submit gives one query —
// validation, result-cache hits, retry, memoization — and a batch is
// never refused for its own size: it is admitted in pieces that fit the
// engine's admission bounds, each answered before the next.
func (e *Engine) SubmitBatch(ctx context.Context, progs []*isa.Program) ([]*machine.Result, []error) {
	qs := e.submitBatch(ctx, progs)
	results := make([]*machine.Result, len(qs))
	errs := make([]error, len(qs))
	for i := range qs {
		results[i], errs[i] = qs[i].res, qs[i].err
	}
	return results, errs
}

// submitBatch is SubmitBatch answering each member with its whole
// record, the result-cache entry that answered it included.
func (e *Engine) submitBatch(ctx context.Context, progs []*isa.Program) []query {
	gen := e.readGen()
	qs := make([]query, len(progs))
	set := make([]*query, 0, len(progs))
	for i, prog := range progs {
		q := &qs[i]
		q.prog = prog
		if q.h, q.hit, q.err = e.precheck(prog, gen); q.hit != nil {
			q.res = q.hit.res
		} else if q.err == nil {
			set = append(set, q)
		}
	}
	piece := e.cfg.QueueCap
	if e.cfg.MaxInFlight > 0 {
		piece = min(piece, e.cfg.MaxInFlight)
	}
	for len(set) > 0 {
		n := min(piece, len(set))
		e.resolve(ctx, set[:n])
		set = set[n:]
	}
	return qs
}

// query is one read on its way from its precheck to its answer.
type query struct {
	prog *isa.Program
	h    uint64  // prog.Hash()
	hit  *answer // the result-cache entry that answered it; nil when none did
	res  *machine.Result
	err  error
}

// resolve runs a set of read misses to an answer each (runSet) and
// memoizes every result under the KB generation its run observed: under
// write churn the serving replica may have synced past the admission
// epoch, never behind it. Submit is resolve over one program, SubmitBatch
// over a batch's.
func (e *Engine) resolve(ctx context.Context, set []*query) {
	e.runSet(ctx, set)
	if e.results == nil {
		return
	}
	for _, m := range set {
		if m.err == nil {
			e.results.put(resultKey{m.h, m.res.KBGen}, &answer{prog: m.prog, res: m.res})
		}
	}
}

// precheck is the per-query admission check Submit and SubmitBatch
// share: mutating and invalid programs are rejected, and an answer
// memoized under gen is returned in place of an execution. Otherwise
// the program's hash comes back for the caller to execute under.
func (e *Engine) precheck(prog *isa.Program, gen uint64) (h uint64, hit *answer, err error) {
	if prog.Mutating() {
		e.st.add(&e.st.Rejected, 1)
		return 0, nil, ErrMutatingProgram
	}
	if err = prog.Validate(); err != nil {
		e.st.add(&e.st.Rejected, 1)
		return 0, nil, err
	}
	h = prog.Hash()
	if e.results != nil {
		// An entry another program left under the same hash is not a hit.
		if a, ok := e.results.get(resultKey{h, gen}); ok && sameProgram(a.prog, prog) {
			e.st.add(&e.st.ResultHits, 1)
			e.emit(-1, perfmon.EvResultHit, uint32(a.res.Time), a.res.Time)
			return h, a, nil
		}
		e.st.add(&e.st.ResultMisses, 1)
	}
	return h, nil, nil
}

// runSet runs a set of misses to an answer each under the engine's
// deadline and retry policies: the retryable failures of one attempt
// are the set of the next, after an exponential backoff, until the
// budget or the caller's context runs out.
func (e *Engine) runSet(ctx context.Context, set []*query) {
	for attempt := 0; len(set) > 0; attempt++ {
		if attempt == e.cfg.Retry.MaxAttempts {
			e.st.add(&e.st.RetriesExhausted, len(set))
			return
		}
		if attempt > 0 {
			var err error
			t := time.NewTimer(backoff(attempt, set[0].h))
			select {
			case <-t.C:
			case <-ctx.Done():
				err = ctx.Err()
			case <-e.life.Done():
				err = ErrClosed
			}
			if t.Stop(); err != nil {
				for _, m := range set {
					m.err = err
				}
				return
			}
			e.st.add(&e.st.Retries, len(set))
			e.emit(-1, perfmon.EvQueryRetried, uint32(attempt), 0)
		}
		set = e.attempt(ctx, set)
	}
}

// attempt runs set once under its own QueryTimeout and returns the
// members whose failure a further attempt may cure. The set is admitted
// as one: its in-flight slots (MaxInFlight) and one replica, idle or
// waited for in the pool's line (QueueCap). The caller runs the members
// on that replica itself; a set of more than one also spreads over every
// other replica idle right now.
func (e *Engine) attempt(ctx context.Context, set []*query) []*query {
	actx := ctx
	if e.cfg.QueryTimeout > 0 {
		a := newAttemptCtx(ctx, e.cfg.QueryTimeout)
		defer a.release()
		actx = a
	}
	n := len(set)
	if f := e.inflight.Add(int64(n)); e.cfg.MaxInFlight > 0 && int(f) > e.cfg.MaxInFlight {
		e.inflight.Add(-int64(n))
		fail(set, e.shed())
		return nil
	}
	defer e.inflight.Add(-int64(n))
	admitted := time.Now()
	rank, err := e.pool.acquire(actx)
	switch {
	case err == ErrOverloaded:
		fail(set, e.shed())
		return nil
	case err == ErrClosed:
		fail(set, err)
		return nil
	}
	e.st.add(&e.st.Submitted, n)
	e.emit(-1, perfmon.EvQuerySubmit, uint32(n), 0)
	switch {
	case err != nil:
		// The attempt's context ended in line: no replica took the set.
		e.st.add(&e.st.Canceled, n)
		e.emit(-1, perfmon.EvQueryCancel, uint32(n), 0)
		fail(set, err)
	case n == 1:
		e.run(actx, rank, set[0], admitted)
		e.giveBack(rank)
	default:
		e.spread(actx, rank, set, admitted)
	}
	var again []*query
	for _, m := range set {
		if m.err != nil && ctx.Err() == nil && attemptRetryable(m.err) {
			again = append(again, m)
		}
	}
	return again
}

// fail answers every member of set with err.
func fail(set []*query, err error) {
	for _, m := range set {
		m.err = err
	}
}

// spread runs set on the caller's replica rank and on every other replica
// idle right now, up to one per member: a helper goroutine drains the set
// on each alongside the caller, so eight members on four idle replicas use
// four. It returns once every member has run and every replica is given
// back.
func (e *Engine) spread(ctx context.Context, rank int, set []*query, admitted time.Time) {
	var next atomic.Int64
	drain := func(rank int) {
		for i := next.Add(1) - 1; i < int64(len(set)); i = next.Add(1) - 1 {
			e.run(ctx, rank, set[i], admitted)
		}
		e.giveBack(rank)
	}
	var helpers sync.WaitGroup
	for range len(set) - 1 {
		r, ok := e.pool.tryAcquire()
		if !ok {
			break
		}
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			drain(r)
		}()
	}
	drain(rank)
	helpers.Wait()
}

// giveBack returns replica rank once its holder is done with it: to the
// pool, or — when a timeout on it crossed the quarantine threshold — to a
// prober, which returns it to the pool on restore.
func (e *Engine) giveBack(rank int) {
	if !e.health[rank].isQuarantined() {
		e.pool.release(rank)
		return
	}
	e.wg.Add(1) // while rank is held, so before Close waits on wg
	e.pool.withdraw()
	go e.probeQuarantined(rank)
}

// shed records an admission rejection and returns ErrOverloaded.
func (e *Engine) shed() error {
	e.st.add(&e.st.Overloaded, 1)
	e.emit(-1, perfmon.EvQueryShed, uint32(e.inflight.Load()), 0)
	return ErrOverloaded
}

// SubmitSource assembles SNAP assembly text (resolving names against the
// engine's knowledge base, never adding one: this is a read door) and
// submits the program. Compilation is memoized in an LRU cache keyed by
// the source's content hash (a hit compares the source it kept), so a
// hot query's assembly and rule compilation cost is paid once.
func (e *Engine) SubmitSource(ctx context.Context, src string) (*machine.Result, error) {
	prog, err := e.compile(e.readAsm, src)
	if err != nil {
		return nil, err
	}
	return e.Submit(ctx, prog)
}

// Compile assembles src through the engine's LRU compile cache and
// returns the shared compiled program. The program is sealed: it is
// immutable, and its content hash was computed once, here. On an engine
// with a write path a writing operand (create's relation, set-color's
// color) may bring a new name into the KB, the program being SubmitWrite's
// to commit; on one without, an unknown name is an error.
func (e *Engine) Compile(src string) (*isa.Program, error) { return e.compile(e.asm, src) }

// compile is Compile through the given assembler. The cache is one, keyed
// by source: a program whose names a write door interned is the same
// program on a read door, which then refuses it as mutating. The key is a
// 64-bit hash, so a hit is one whose kept source is src; another source
// under the same key is a miss, and its program replaces the entry.
func (e *Engine) compile(asm *isa.Assembler, src string) (*isa.Program, error) {
	key := sourceHash(src)
	if c, ok := e.cache.get(key); ok && c.src == src {
		e.st.add(&e.st.CompileHits, 1)
		return c.prog, nil
	}
	start := time.Now()
	prog, err := asm.AssembleString(src)
	if err != nil {
		e.st.add(&e.st.Rejected, 1)
		return nil, err
	}
	prog.Seal()
	e.st.cacheMiss(time.Since(start))
	e.cache.put(key, compiled{src: src, prog: prog})
	return prog, nil
}

// sourceHash is 64-bit FNV-1a over src — hash/fnv's New64a, without the
// []byte copy of the program text it needs to hash a string.
func sourceHash(src string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(src); i++ {
		h = (h ^ uint64(src[i])) * 1099511628211
	}
	return h
}

// run serves query q on replica rank, which its caller holds: bring the
// replica up to the published epoch and, unless ctx has already ended,
// run the query's own program, as written, from clear marker state.
// admitted is when the query's attempt was admitted: from then to here
// it waited for a replica.
func (e *Engine) run(ctx context.Context, rank int, q *query, admitted time.Time) {
	m := e.machines[rank]
	e.syncReplica(m)
	e.st.take(time.Since(admitted))
	e.emit(rank, perfmon.EvBatchDispatch, 1, 0)
	if err := ctx.Err(); err != nil {
		e.st.add(&e.st.Canceled, 1)
		e.emit(rank, perfmon.EvQueryCancel, 1, 0)
		q.res, q.err = nil, err
		return
	}
	m.ClearMarkers()
	start := time.Now()
	res, err := m.RunContext(ctx, q.prog)
	e.st.run(time.Since(start), err)
	if err != nil {
		if ctx.Err() != nil {
			if attemptTimedOut(ctx) {
				// The engine's own deadline blown on this replica —
				// possibly a wedged or crawling array — counts toward its
				// quarantine; one the caller chose says nothing about it.
				e.noteTimeout(rank)
			}
			e.emit(rank, perfmon.EvQueryCancel, 1, 0)
		}
		q.res, q.err = nil, err
		return
	}
	e.noteSuccess(rank)
	if p := res.Profile; p != nil {
		e.st.icn(p.PropMessages, p.PropHops, p.SendBursts)
	}
	e.emit(rank, perfmon.EvQueryDone, uint32(res.Time), res.Time)
	q.res, q.err = res, nil
}

// emit forwards an engine-level event to the monitor, if attached. pe
// -1 means "not yet on a replica"; now is the query's virtual time where
// one exists, else 0.
func (e *Engine) emit(pe int, code perfmon.EventCode, status uint32, now timing.Time) {
	if e.mon != nil {
		e.mon.Emit(pe, code, status, now)
	}
}

// Close turns away the callers waiting for a replica or for the writer
// with ErrClosed, waits for the write in progress and the reads running
// on replicas, stops the health probes (one wedged on its replica
// included), and releases the machines.
func (e *Engine) Close() {
	e.stop()
	if e.writes != nil {
		e.writes.close()
	}
	e.pool.close()
	e.wg.Wait()
	for _, m := range e.machines {
		m.Close()
	}
	if e.writer != nil {
		e.writer.Close()
	}
}

// Stats returns a snapshot of the engine's serving counters.
func (e *Engine) Stats() Stats {
	st := e.st.snapshot()
	st.IdleReplicas, st.QueueDepth = e.pool.gauges()
	st.InFlight = int(e.inflight.Load())
	if e.results != nil {
		st.ResultCacheSize = e.results.len()
	}
	st.HealthyReplicas = e.healthyReplicas()
	st.Degraded = st.HealthyReplicas < st.Replicas
	st.KBGeneration = e.readGen()
	return st
}
