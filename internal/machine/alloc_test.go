package machine

import (
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
