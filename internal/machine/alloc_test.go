package machine

import (
	"runtime"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// Steady-state propagation must not allocate per task: task queues, relay
// queues and visit tables are reused across phases, and a message moves
// through the mailboxes by value. What the reference engine allocates per
// phase — one goroutine a cluster — is counted per run, not per task. This
// test is the regression fence for that property — if a map, closure, or
// interface conversion sneaks back into the hot loop, allocs/task jumps by
// orders of magnitude and the bound below fails.
func TestPropagateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name string
		det  bool
	}{
		{"concurrent", false},
		{"lockstep", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := kbgen.Chains(1, 128, 10, 1)
			cfg := PaperConfig()
			cfg.Deterministic = tc.det
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if err := m.LoadKB(w.KB); err != nil {
				t.Fatal(err)
			}

			p := isa.NewProgram()
			p.SearchColor(w.Seeds[0], 0, 0)
			p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd)
			p.Barrier()

			var tasks int64
			run := func() {
				m.ClearMarkers()
				res, err := m.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				tasks = res.Profile.PropSteps
			}
			run() // warm up: grown task queues and scratch buffers

			allocs := testing.AllocsPerRun(10, run)
			if tasks == 0 {
				t.Fatal("workload produced no propagation tasks")
			}
			perTask := allocs / float64(tasks)
			// A handful of fixed per-run allocations (Result, Profile,
			// instruction bookkeeping) amortized over >1000 tasks; the
			// old per-task paths sat at ~1 alloc/task.
			if perTask > 0.05 {
				t.Errorf("steady-state propagation allocates %.1f objects/run (%.4f per task over %d tasks); want ~0 per task",
					allocs, perTask, tasks)
			}
		})
	}
}

// TestCloneAllocatesOnlyMarkerState fences Clone's promise on the network
// the serving benchmark's snapd loads (12K nodes with the newswire
// domain, 16 clusters), here under the library's default round-robin
// partition, where snapd defaults to semantic: a clone's allocations are
// the same under either. A replica allocates its marker state and
// per-run scratch and shares the topology, so cloning costs ≈ 373 KB,
// and no complex-marker register until a run writes one. A per-cluster
// structure built eagerly that only a contended run of the reference
// engine needs, or topology copied instead of shared, fails here.
func TestCloneAllocatesOnlyMarkerState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g, err := kbgen.Generate(kbgen.Params{Nodes: 12000, Seed: 42, WithDomain: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig()
	cfg.MUsPerCluster, cfg.ExtraMUClusters = 2, 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(g.KB); err != nil {
		t.Fatal(err)
	}
	const clones = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < clones; i++ {
		if _, err := m.Clone(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perClone := (after.TotalAlloc - before.TotalAlloc) / clones
	t.Logf("Clone allocates %d KB", perClone>>10)
	if perClone > 460<<10 {
		t.Errorf("Clone allocates %d KB, want <= 460 KB", perClone>>10)
	}
}
