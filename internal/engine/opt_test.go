package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// redundantChainQuery is the canonical chain query wrapped in the
// redundancy a defensive frontend emits: a scratch plane initialized
// with a SET/FUNC pair and a diagnostic PATH sweep onto it that nothing
// collects. Under the serving profile the optimizer deletes all of it,
// so the program exercises every integration seam: rewrite, remap,
// stats, and the virtual-time win. The variant value makes members hash
// distinctly at identical execution cost.
func redundantChainQuery(w *kbgen.Workload, variant int) *isa.Program {
	p := isa.NewProgram()
	p.Set(2, 0)
	p.Func(2, semnet.FuncAdd, 1)
	p.SearchColor(w.Seeds[0], 0, float32(variant))
	p.Propagate(0, 1, rules.Path(w.Rel), semnet.FuncAdd)
	p.Propagate(0, 2, rules.Path(w.Rel), semnet.FuncAdd) // dead diagnostic sweep
	p.Barrier()
	p.CollectNode(1)
	return p
}

// newOptTestEngine builds a single-replica engine over w at the given
// optimizer level.
func newOptTestEngine(t *testing.T, w *kbgen.Workload, level int, extra ...Option) *Engine {
	t.Helper()
	cfg := machine.PaperConfig()
	opts := append([]Option{
		WithReplicas(1), WithMachineOptions(cfg), WithOptLevel(level),
	}, extra...)
	e, err := New(w.KB, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestEngineOptimizedBitIdenticalAndFaster is the engine-integration
// acceptance check: serving at O2 must answer with collections
// bit-identical to O0 serving of the same queries — instruction indices
// included, remapped back onto the submitted program — while the
// reported virtual time strictly improves on a workload whose
// redundancy the optimizer deletes.
func TestEngineOptimizedBitIdenticalAndFaster(t *testing.T) {
	w := kbgen.Chains(1, 32, 8, 1)
	plain := newOptTestEngine(t, w, 0)
	tuned := newOptTestEngine(t, w, isa.OptFull)

	for variant := 0; variant < 8; variant++ {
		p := redundantChainQuery(w, variant)
		ref, err := plain.Submit(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tuned.Submit(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Collections, res.Collections) {
			t.Fatalf("variant %d: optimized collections differ from unoptimized", variant)
		}
		if want := p.Len() - 1; res.Collections[0].Instr != want {
			t.Fatalf("variant %d: collection Instr = %d, want the submitted program's index %d",
				variant, res.Collections[0].Instr, want)
		}
		if res.Time >= ref.Time {
			t.Fatalf("variant %d: optimized virtual time %v not better than unoptimized %v",
				variant, res.Time, ref.Time)
		}
	}

	st := tuned.Stats()
	if st.OptPrograms != 8 {
		t.Errorf("OptPrograms = %d, want 8 (one per distinct variant)", st.OptPrograms)
	}
	// Each variant loses the SET/FUNC pair and the dead sweep.
	if st.OptInstrsEliminated < 3*st.OptPrograms {
		t.Errorf("OptInstrsEliminated = %d, want >= %d", st.OptInstrsEliminated, 3*st.OptPrograms)
	}
	if st.OptPlanesFreed == 0 {
		t.Error("OptPlanesFreed = 0, want the dead scratch plane's row back")
	}
	if st.OptFallbacks != 0 {
		t.Errorf("OptFallbacks = %d on an unambiguous workload", st.OptFallbacks)
	}
	if plainStats := plain.Stats(); plainStats.OptPrograms != 0 {
		t.Errorf("O0 engine reports OptPrograms = %d, want 0", plainStats.OptPrograms)
	}
}

// TestEngineOptCachedPerHash pins the memoization seam: resubmitting
// the same program must not re-optimize (one counted rewrite, one
// program-optimized event), and the result cache must serve the
// optimized result bit-identically on the hit path.
func TestEngineOptCachedPerHash(t *testing.T) {
	w := kbgen.Chains(1, 16, 6, 1)
	mon := perfmon.NewCollector(128)
	e := newOptTestEngine(t, w, isa.OptFull, WithMonitor(mon))

	p := redundantChainQuery(w, 0)
	first, err := e.Submit(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Submit(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("repeat submission differs from the first result")
	}
	if st := e.Stats(); st.OptPrograms != 1 {
		t.Errorf("OptPrograms = %d after resubmission, want 1", st.OptPrograms)
	}
	events := 0
	for _, rec := range mon.Drain() {
		if rec.Code == perfmon.EvProgramOptimized {
			events++
			if rec.Status == 0 {
				t.Error("program-optimized event carries zero eliminated instructions")
			}
		}
	}
	if events != 1 {
		t.Errorf("EvProgramOptimized emitted %d times, want 1", events)
	}
}

// TestEngineOptBatchRemap drives optimized programs through SubmitBatch:
// each member runs its rewrite and must come back under the instruction
// indices of the program the caller submitted.
func TestEngineOptBatchRemap(t *testing.T) {
	w := kbgen.Chains(1, 16, 6, 1)
	cfg := machine.PaperConfig()
	e, err := New(w.KB, WithReplicas(1), WithMachineOptions(cfg),
		WithOptLevel(isa.OptFull), WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	plain := newOptTestEngine(t, w, 0)

	batch := make([]*isa.Program, 4)
	for i := range batch {
		batch[i] = redundantChainQuery(w, i)
	}
	results, errs := e.SubmitBatch(context.Background(), batch)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	if st := e.Stats(); st.OptPrograms != uint64(len(batch)) {
		t.Fatalf("%d members rewritten, want %d; the test exercises the remap", st.OptPrograms, len(batch))
	}
	for i, res := range results {
		ref, err := plain.Submit(context.Background(), batch[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Collections, res.Collections) {
			t.Errorf("member %d: optimized collections differ from unoptimized", i)
		}
		if want := batch[i].Len() - 1; res.Collections[0].Instr != want {
			t.Errorf("member %d: collection Instr = %d, want %d", i, res.Collections[0].Instr, want)
		}
	}
}

// TestEngineOptLevelConfig pins the configuration surface: out-of-range
// levels are rejected wholesale, WithOptLevel(0) disables rather than
// selecting the default, and a directly-constructed zero Config serves
// at full level.
func TestEngineOptLevelConfig(t *testing.T) {
	w := kbgen.Chains(1, 4, 3, 1)
	if _, err := New(w.KB, func(c *Config) { c.OptLevel = isa.OptFull + 1 }); err == nil {
		t.Error("OptLevel beyond OptFull accepted")
	} else if !strings.Contains(err.Error(), "OptLevel") {
		t.Errorf("invalid OptLevel error does not name the field: %v", err)
	}

	off := newOptTestEngine(t, w, 0)
	if off.cfg.OptLevel >= 0 {
		t.Errorf("WithOptLevel(0) left OptLevel = %d, want negative (disabled)", off.cfg.OptLevel)
	}
	p := redundantChainQuery(w, 0)
	if opt := off.optimize(p); opt != nil {
		t.Error("disabled engine still produced an optimization product")
	}

	def, err := New(w.KB, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if def.cfg.OptLevel != isa.OptFull {
		t.Errorf("default OptLevel = %d, want isa.OptFull", def.cfg.OptLevel)
	}
}
