package engine

import (
	"context"
	"errors"
	"sync"

	"snap1/internal/isa"
	"snap1/internal/machine"
)

// flight is one in-progress execution of a program hash. Followers that
// submit the same program while it runs wait on done instead of queueing
// a duplicate execution; a different program under the same hash is not
// a follower (sameProgram).
type flight struct {
	done chan struct{}
	prog *isa.Program
	res  *machine.Result
	err  error
}

// flightGroup collapses concurrent submissions of identical programs
// onto one execution (singleflight). Replicas run deterministically and
// every query starts from cleared markers, so one execution's Result —
// virtual time included — is bit-identical to what each collapsed
// duplicate would have computed.
type flightGroup struct {
	mu sync.Mutex
	m  map[uint64]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[uint64]*flight)}
}

// join returns the in-progress flight for key, or registers a new one
// for prog. leader is true when the caller must execute and later call
// finish.
func (g *flightGroup) join(key uint64, prog *isa.Program) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{}), prog: prog}
	g.m[key] = f
	return f, true
}

// finish publishes the leader's outcome and releases every follower.
func (g *flightGroup) finish(key uint64, f *flight, res *machine.Result, err error) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.res, f.err = res, err
	close(f.done)
}

// retryable reports whether a follower should re-run the flight loop
// rather than adopt the leader's error: the leader's own context
// expiring says nothing about the follower's query.
func retryable(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
