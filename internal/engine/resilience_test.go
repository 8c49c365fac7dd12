package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"snap1/internal/fault"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/partition"
)

// faultTestMachine is a small round-robin-partitioned lockstep array:
// round-robin scatters the is-a chains across clusters, so every
// inheritance query crosses the ICN and fault rules on ICN sites bite
// deterministically.
func faultTestMachine() machine.Config {
	mc := machine.DefaultConfig()
	mc.Clusters = 4
	mc.ExtraMUClusters = 2
	mc.NodesPerCluster = 64
	mc.Partition = partition.RoundRobin
	return mc
}

func resilientEngine(t *testing.T, g *kbgen.Generated, plan *fault.Plan, opts ...Option) *Engine {
	t.Helper()
	all := append([]Option{
		WithMachineOptions(faultTestMachine()),
		WithFaultPlan(plan),
	}, opts...)
	e, err := New(g.KB, all...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestNewReportsAllInvalidOptions requires New to surface every invalid
// option in one error, not just the first one it trips over.
func TestNewReportsAllInvalidOptions(t *testing.T) {
	g := fig15KB(t, 200)
	_, err := New(g.KB,
		WithReplicas(-2),
		WithQueueCap(-1),
		WithQueryTimeout(-time.Second),
		WithRetryPolicy(RetryPolicy{MaxAttempts: -3}),
	)
	if err == nil {
		t.Fatal("New accepted an invalid configuration")
	}
	for _, frag := range []string{
		"engine: invalid configuration",
		"Replicas", "QueueCap", "QueryTimeout",
		"Retry.MaxAttempts",
	} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

// TestConfigValidateFaultPlan folds fault-plan errors into the same
// joined configuration error.
func TestConfigValidateFaultPlan(t *testing.T) {
	cfg := Config{FaultPlan: &fault.Plan{Rules: []fault.Rule{{Site: "no-such-site", Rate: 2}}}}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("bad fault plan accepted")
	}
	if !strings.Contains(err.Error(), "no-such-site") {
		t.Errorf("error %q does not mention the bad site", err)
	}
}

// TestRetryRecoversFromInjectedFaults: every replica drops the first
// ICN messages it sees (bounded budget), so first attempts fail poisoned
// and the retry loop must land a clean re-execution with the exact
// sequential result.
func TestRetryRecoversFromInjectedFaults(t *testing.T) {
	g := fig15KB(t, 200)
	// Count 1: a dropped message halts the propagation wave, so each
	// poisoned run consumes exactly one budget unit — one poisoned run
	// per replica, then clean re-execution.
	plan := &fault.Plan{Seed: 42, Rules: []fault.Rule{
		{Site: "icn-drop", Rate: 1, Count: 1},
	}}
	e := resilientEngine(t, g, plan,
		WithReplicas(2),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 6}),
	)
	src := inheritanceQuery(g, queryConcepts(g, 1)[0])
	want := sequentialReference(t, e, []string{src})[src]

	res, err := e.SubmitSource(context.Background(), src)
	if err != nil {
		t.Fatalf("query did not recover: %v", err)
	}
	if !sameNames(res.Names(0), want.names) || res.Time.String() != want.time {
		t.Errorf("recovered result differs from sequential: %v / %v, want %v / %v",
			res.Names(0), res.Time, want.names, want.time)
	}
	st := e.Stats()
	if st.Retries == 0 {
		t.Error("no retries recorded despite guaranteed first-attempt poison")
	}
	if st.RetriesExhausted != 0 {
		t.Errorf("retry budget reported exhausted %d times", st.RetriesExhausted)
	}
}

// TestRetryGivesUpAfterBudget: with an unlimited full-rate drop rule on
// every replica, no attempt can succeed; Submit must fail with the
// poison sentinel after exactly MaxAttempts tries, never hang.
func TestRetryGivesUpAfterBudget(t *testing.T) {
	g := fig15KB(t, 200)
	plan := &fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Site: "icn-drop", Rate: 1},
	}}
	e := resilientEngine(t, g, plan,
		WithReplicas(2),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3}),
	)
	src := inheritanceQuery(g, queryConcepts(g, 1)[0])
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := e.SubmitSource(ctx, src)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("exhausted retries returned %v, want fault.ErrInjected", err)
	}
	st := e.Stats()
	if st.RetriesExhausted != 1 {
		t.Errorf("retries_exhausted = %d, want 1", st.RetriesExhausted)
	}
	if st.Retries != 2 {
		t.Errorf("retries = %d, want 2 (attempts 2 and 3)", st.Retries)
	}
}

// TestQuarantineAndReintegration walks the full replica lifecycle:
// replica 0 wedges its first three runs (bounded budget), times out on
// each, is quarantined at the third, serves degraded from replica 1, and
// is probed back into the ring once the wedge budget is spent.
func TestQuarantineAndReintegration(t *testing.T) {
	g := fig15KB(t, 200)
	zero := 0
	plan := &fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Site: "machine-wedge", Rate: 1, Count: 3, Replica: &zero},
	}}
	e := resilientEngine(t, g, plan,
		WithReplicas(2),
		// No result cache: every submission must reach a machine, so
		// replica 0 is guaranteed to pick up a run eventually.
		WithResultCache(-1),
		WithQueryTimeout(50*time.Millisecond),
		// Three attempts time out on replica 0 — a lone submitter gets
		// back the replica it released last — and the fourth runs on
		// replica 1.
		WithRetryPolicy(RetryPolicy{MaxAttempts: 4}),
	)
	srcs := make([]string, 0, 8)
	for _, c := range queryConcepts(g, 8) {
		srcs = append(srcs, inheritanceQuery(g, c))
	}

	// Submit until replica 0 trips its wedge and is quarantined. The pool
	// hands replica 0 out first, so the first query usually trips it;
	// keep feeding distinct queries until it has.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; e.Stats().Quarantines == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("replica 0 never quarantined")
		}
		if _, err := e.SubmitSource(context.Background(), srcs[i%len(srcs)]); err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
	}

	// While quarantined (or just after restore) the engine keeps serving.
	rep := e.Health()
	if rep.Replicas[0].Quarantines == 0 {
		t.Errorf("health report shows no quarantine on replica 0: %+v", rep)
	}
	if _, err := e.SubmitSource(context.Background(), srcs[0]); err != nil {
		t.Fatalf("degraded engine failed a query: %v", err)
	}

	// The wedge budget (3) is spent by the runs that quarantined the
	// replica; the next two probes pass and restore it.
	for e.Stats().Restores == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica 0 never restored")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep = e.Health()
	if rep.Status != "ok" {
		t.Errorf("post-restore status = %q, want ok", rep.Status)
	}
	if rep.Replicas[0].State != "healthy" || rep.Replicas[0].Restores == 0 {
		t.Errorf("replica 0 not restored: %+v", rep.Replicas[0])
	}
	st := e.Stats()
	if st.Quarantines == 0 || st.Restores == 0 || st.Degraded {
		t.Errorf("stats missed the lifecycle: %+v", st)
	}
}

// TestClientDeadlineDoesNotQuarantine: a deadline the caller chose says
// nothing about the replica it fires on. Only the engine's own
// per-attempt deadline (QueryTimeout) counts toward quarantine, or six
// impatient requests take a healthy two-replica engine dark.
func TestClientDeadlineDoesNotQuarantine(t *testing.T) {
	g := fig15KB(t, 800)
	// No result cache: every submission reaches a replica.
	e, err := New(g.KB, WithReplicas(2), WithResultCache(0), WithQueryTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Milliseconds of run: a 1ms deadline mostly fires mid-run.
	heavy, err := e.Compile(heavyQuery(queryConcepts(g, 1)[0], 4000))
	if err != nil {
		t.Fatal(err)
	}
	// Two replicas at the default threshold of three: six runs cut short
	// is what it took to quarantine both.
	for i := 0; e.Stats().Failed < 6; i++ {
		if i == 400 {
			t.Fatal("400 submissions and the deadline never fired mid-run")
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := e.Submit(ctx, heavy)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("submit %d under a 1ms deadline: %v", i, err)
		}
	}
	if rep := e.Health(); rep.Status != "ok" {
		t.Errorf("health status = %q, want ok", rep.Status)
	}
	waitFor(t, "quiescence", func() bool {
		st := e.Stats()
		return st.Submitted == st.Completed+st.Failed+st.Canceled
	})
	if st := e.Stats(); st.Quarantines != 0 {
		t.Errorf("quarantines = %d after %d runs cut short by the caller's deadline, want 0", st.Quarantines, st.Failed)
	}
}

// TestFaultSoak is the acceptance scenario: a seeded plan with 1% ICN
// drops everywhere plus one wedged replica. The engine must serve the
// whole mixed-query suite with zero failures, every result bit-identical
// to the fault-free sequential reference, and the health report must
// show the wedged replica quarantined.
func TestFaultSoak(t *testing.T) {
	g := fig15KB(t, 400)
	// The pool hands out the replica released last, and replica 0 first:
	// a wedge on a replica sequential traffic never reaches would never
	// fire.
	wedged := 0
	plan := &fault.Plan{Seed: 1234, Rules: []fault.Rule{
		{Site: "icn-drop", Rate: 0.01},
		{Site: "machine-wedge", Rate: 1, Replica: &wedged},
	}}
	e := resilientEngine(t, g, plan,
		WithReplicas(3),
		// No result cache: all rounds hit real hardware under the plan.
		WithResultCache(-1),
		WithQueryTimeout(500*time.Millisecond),
		// Every probe of the wedged replica wedges too, so it is still
		// quarantined when we read /v1/health state.
		WithRetryPolicy(RetryPolicy{MaxAttempts: 8}),
	)
	srcs := make([]string, 0, 16)
	for _, c := range queryConcepts(g, 16) {
		srcs = append(srcs, inheritanceQuery(g, c))
	}
	want := sequentialReference(t, e, srcs)
	progs := compileAll(t, e, srcs)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const rounds = 4
	errc := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		check := func(src string, res *machine.Result, err error) bool {
			if w := want[src]; err == nil && (!sameNames(res.Names(0), w.names) || res.Time.String() != w.time) {
				err = errors.New("result diverged from fault-free reference: " + src)
			}
			if err != nil {
				errc <- err
			}
			return err == nil
		}
		for r := 0; r < rounds; r++ {
			for _, src := range srcs {
				if res, err := e.SubmitSource(ctx, src); !check(src, res, err) {
					return
				}
			}
		}
		// One more round through the batch door, in batches of eight,
		// past the wedged replica.
		for lo := 0; lo < len(srcs); lo += 8 {
			hi := min(lo+8, len(srcs))
			results, errs := e.SubmitBatch(ctx, progs[lo:hi])
			for i, src := range srcs[lo:hi] {
				if !check(src, results[i], errs[i]) {
					return
				}
			}
		}
	}()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("soak hung: queries stopped completing")
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	rep := e.Health()
	if rep.Status != "degraded" {
		t.Errorf("soak health status = %q, want degraded", rep.Status)
	}
	if rep.Replicas[wedged].State != "quarantined" {
		t.Errorf("replica %d state = %q, want quarantined", wedged, rep.Replicas[wedged].State)
	}
	st := e.Stats()
	if st.HealthyReplicas != 2 || !st.Degraded {
		t.Errorf("stats: healthy=%d degraded=%v, want 2/true", st.HealthyReplicas, st.Degraded)
	}
	if st.Failed != 0 && st.Retries == 0 {
		t.Errorf("failures without retries: %+v", st)
	}
}

// wedgedEngine is a two-replica engine whose replica 0 — the first the
// pool hands out — wedges every run and every probe until its deadline,
// queryTimeout, and is quarantined at its third timeout. No result cache:
// every submission reaches a replica.
func wedgedEngine(t *testing.T, g *kbgen.Generated, queryTimeout time.Duration) *Engine {
	t.Helper()
	zero := 0
	e, err := New(g.KB,
		WithMachineOptions(faultTestMachine()),
		WithFaultPlan(&fault.Plan{Seed: 3, Rules: []fault.Rule{{Site: "machine-wedge", Rate: 1, Replica: &zero}}}),
		WithReplicas(2),
		WithResultCache(-1),
		WithQueryTimeout(queryTimeout),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// quarantineReplica0 submits distinct queries until replica 0 has been
// quarantined; each is answered by replica 1 after its retries.
func quarantineReplica0(t *testing.T, e *Engine, g *kbgen.Generated) {
	t.Helper()
	concepts := queryConcepts(g, 8)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; e.Stats().Quarantines == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("replica 0 never quarantined")
		}
		if _, err := e.SubmitSource(context.Background(), inheritanceQuery(g, concepts[i%len(concepts)])); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// TestCloseDoesNotWaitOutAWedgedProbe: a probe runs under the engine's
// life, so Close cancels a probe that a wedged replica holds instead of
// waiting out its timeout, QueryTimeout — snapd's SIGTERM path, where
// that is the 10 s query timeout. Here it is 1 s, so a Close that waited
// would return about 1.1 s after the quarantine.
func TestCloseDoesNotWaitOutAWedgedProbe(t *testing.T) {
	g := fig15KB(t, 200)
	e := wedgedEngine(t, g, time.Second)
	quarantineReplica0(t, e, g)
	quarantined := time.Now()
	time.Sleep(150 * time.Millisecond) // the first probe is wedged by now
	e.Close()
	if d := time.Since(quarantined); d > 500*time.Millisecond {
		t.Errorf("Close returned %v after the quarantine, want within 500ms", d)
	}
}

// TestIdleReplicasLeaveOutQuarantined: Stats.IdleReplicas counts the
// replicas that could take a request now, which a quarantined replica,
// out with its prober, cannot.
func TestIdleReplicasLeaveOutQuarantined(t *testing.T) {
	g := fig15KB(t, 200)
	e := wedgedEngine(t, g, 50*time.Millisecond)
	defer e.Close()
	quarantineReplica0(t, e, g)
	if st := e.Stats(); st.IdleReplicas != 1 || st.HealthyReplicas != 1 {
		t.Errorf("one of two replicas quarantined: %d idle, %d healthy; want 1, 1", st.IdleReplicas, st.HealthyReplicas)
	}
}

// TestAttemptDeadline: an attempt's context reads as live until its
// deadline and as expired after it, with Done closed by then whether or
// not anything armed it earlier; its expiry is told apart from the
// caller's own cancellation; and a released context stops its timer.
func TestAttemptDeadline(t *testing.T) {
	a := newAttemptCtx(context.Background(), 20*time.Millisecond)
	if err := a.Err(); err != nil {
		t.Fatalf("a fresh attempt's Err = %v", err)
	}
	if d, ok := a.Deadline(); !ok || time.Until(d) > 20*time.Millisecond {
		t.Errorf("Deadline = %v, %v; want within 20ms", d, ok)
	}
	time.Sleep(25 * time.Millisecond)
	if err := a.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("past its deadline, Err = %v", err)
	}
	select {
	case <-a.Done():
	default:
		t.Fatal("Err set while Done is open")
	}
	if !attemptTimedOut(a) {
		t.Error("the attempt's own deadline not told apart from the caller's")
	}
	a.release()

	waited := newAttemptCtx(context.Background(), 10*time.Millisecond)
	<-waited.Done()
	if err := waited.Err(); !errors.Is(err, context.DeadlineExceeded) || !attemptTimedOut(waited) {
		t.Errorf("a waited-on deadline: Err %v, timed out %v", err, attemptTimedOut(waited))
	}
	waited.release()

	parent, cancel := context.WithCancel(context.Background())
	c := newAttemptCtx(parent, time.Hour)
	done := c.Done()
	cancel()
	<-done
	if err := c.Err(); !errors.Is(err, context.Canceled) || attemptTimedOut(c) {
		t.Errorf("the caller's cancellation: Err %v, timed out %v", err, attemptTimedOut(c))
	}
	c.release()
	if attemptTimedOut(parent) {
		t.Error("a context without an attempt deadline read as timed out")
	}
}
