package machine

import (
	"context"
	"errors"

	"snap1/internal/isa"
)

// Strict runs: executing a fused program (isa.Fused, N renamed queries
// in one machine run) or an optimizer-rewritten one. Both are a plain
// RunContext with the origin-tie detector armed. Fusing perturbs task
// order, and while final marker bits and values are order-free (the
// merge functions are commutative/associative/idempotent), the origin
// register of a complex marker records the source of the first task
// delivering the final value — which is ambiguous when two
// distinct-origin final contributions tie. expand detects exactly that
// tie during a strict run and the run fails, so the caller can fall
// back to the programs as written instead of committing a
// schedule-dependent origin register. (Fuse already rejects the
// non-strict apply functions for which the tie is undetectable.)

// ErrFusionAmbiguous reports that a fused run observed an equal-value,
// distinct-origin marker delivery tie — the one observable difference
// fused scheduling could introduce. The run's results are discarded and
// the caller re-runs the queries unfused.
var ErrFusionAmbiguous = errors.New("machine: fused run hit origin-ambiguous value tie")

// ErrOptAmbiguous reports that an optimized run observed an equal-value,
// distinct-origin marker delivery tie — the one observable the
// optimizer's reordering could in principle perturb. The run's results
// are discarded and the caller re-runs the unoptimized program.
var ErrOptAmbiguous = errors.New("machine: optimized run hit origin-ambiguous value tie")

// RunFused executes a fused program. On success the result is the
// fused run's (demultiplexing to per-query results is the caller's
// job, via Result.Demux). ErrFusionAmbiguous means the run detected an
// origin tie; any other error is as for RunContext.
func (m *Machine) RunFused(ctx context.Context, f *isa.Fused) (*Result, error) {
	return m.runStrict(ctx, f.Program, ErrFusionAmbiguous)
}

// RunOptimized executes an optimizer-rewritten program; a detected tie
// fails the run with ErrOptAmbiguous. Nothing reaches it while
// isa.Optimize is the identity (Changed is always false); it goes with
// that stub (ROADMAP item 1a).
func (m *Machine) RunOptimized(ctx context.Context, p *isa.Program) (*Result, error) {
	return m.runStrict(ctx, p, ErrOptAmbiguous)
}

// runStrict is RunContext with the origin-tie detector armed; a tie
// fails the run with ambiguous.
func (m *Machine) runStrict(ctx context.Context, p *isa.Program, ambiguous error) (*Result, error) {
	m.tie.Store(false)
	m.strict = true
	res, err := m.RunContext(ctx, p)
	m.strict = false
	if err != nil {
		return nil, err
	}
	if m.tie.Load() {
		return nil, ambiguous
	}
	return res, nil
}

// Demux splits a fused run's result into per-query results. Every
// member reports the fused run's end time and shares its profile: the
// batch was one physical machine run, and attributing fractions of it
// below run granularity would fabricate precision the hardware model
// doesn't have. Collections are re-indexed onto each query's own
// instruction stream, so Collected(i) means the same thing it does on
// a solo result.
func (r *Result) Demux(f *isa.Fused) []*Result {
	out := make([]*Result, f.Queries)
	for q := range out {
		out[q] = &Result{Time: r.Time, Profile: r.Profile, Fused: true, KBGen: r.KBGen, kb: r.kb}
	}
	for _, col := range r.Collections {
		o := f.InstrOf(col.Instr)
		out[o.Query].Collections = append(out[o.Query].Collections, Collection{
			Instr: o.Index, Op: col.Op, Items: col.Items,
		})
	}
	return out
}

// RemapInstrs rewrites every collection's Instr index through
// origIndex (optimized position → original position), so callers keep
// addressing collections by the program they submitted. Out-of-range
// indices are left untouched.
func (r *Result) RemapInstrs(origIndex []int) {
	for i := range r.Collections {
		if c := &r.Collections[i]; c.Instr >= 0 && c.Instr < len(origIndex) {
			c.Instr = origIndex[c.Instr]
		}
	}
}
