package main

import (
	"context"
	"strings"
	"time"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// Host time spent inside Machine.Run cannot be split from outside the
// machine package. Until the simulator carries stage clocks it is
// approximated by pairs of programs that differ in one phase: the host
// time of the pair's difference, divided by the simulated work of that
// phase, is the phase's unit cost.

// medianRunNanos runs prog reps times from cleared markers and returns
// the median host time of a run and the last result.
func medianRunNanos(m *machine.Machine, prog *isa.Program, reps int) (float64, *machine.Result, error) {
	ns := make([]float64, 0, reps)
	var res *machine.Result
	for i := 0; i < reps; i++ {
		m.ClearMarkers()
		start := time.Now()
		r, err := m.RunContext(context.Background(), prog)
		if err != nil {
			return 0, nil, err
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds()))
		res = r
	}
	return median(ns), res, nil
}

// nanosPerStep is the host cost of one link traversal in a dense
// propagation phase: SET-MARKER makes every node a source, PROPAGATE
// spreads along is-a, and the same program without the PROPAGATE is
// subtracted.
func nanosPerStep(m *machine.Machine, isA semnet.RelType, reps int) (float64, error) {
	dense := isa.NewProgram().Set(0, 0).Propagate(0, 1, rules.Path(isA), semnet.FuncAdd).Barrier()
	base := isa.NewProgram().Set(0, 0).Barrier()
	with, res, err := medianRunNanos(m, dense, reps)
	if err != nil {
		return 0, err
	}
	without, _, err := medianRunNanos(m, base, reps)
	if err != nil {
		return 0, err
	}
	return ratio(with-without, float64(res.Profile.PropSteps)), nil
}

// differential measures the unit costs on the oracle's lockstep machine
// and on a concurrent (goroutine-per-cluster) machine over the same
// network. The concurrent figure moves no end-to-end metric today, as
// that engine is off the serving path; it is recorded for the question
// of whether it should stay.
func differential(o *oracle, reps int) (stepLockstep, stepConcurrent, collectPerRow float64, err error) {
	if stepLockstep, err = nanosPerStep(o.m, o.g.Rel.IsA, reps); err != nil {
		return
	}
	conc, err := newReplica(o.g.KB, machine.WithDeterministic(false))
	if err != nil {
		return
	}
	defer conc.Close()
	if stepConcurrent, err = nanosPerStep(conc, o.g.Rel.IsA, reps); err != nil {
		return
	}

	// COLLECT's cost per row: a depth-1 subsume (~300 rows) with and
	// without its collect-node.
	text := query{tmpl: tSubsume, a: o.g.KB.Name(o.g.Classes[1])}.render(0)
	full, err := o.asm.Assemble(strings.NewReader(text))
	if err != nil {
		return
	}
	bare, err := o.asm.Assemble(strings.NewReader(text[:strings.LastIndex(text, "collect-node")]))
	if err != nil {
		return
	}
	with, res, err := medianRunNanos(o.m, full, reps)
	if err != nil {
		return
	}
	without, _, err := medianRunNanos(o.m, bare, reps)
	if err != nil {
		return
	}
	collectPerRow = ratio(with-without, float64(len(res.Collected(0))))
	return
}
