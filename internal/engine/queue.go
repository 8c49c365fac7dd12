package engine

import (
	"context"
	"sync"

	"snap1/internal/isa"
	"snap1/internal/machine"
)

// request is one queued write, answered once on resp.
type request struct {
	ctx  context.Context
	prog *isa.Program
	resp chan response
}

type response struct {
	res *machine.Result
	err error
}

// queue is the write queue: SubmitWrite pushes, and the writer, its only
// popper, takes what is queued up to the round bound — the group commit.
// It owns admission (the capacity), parking (the writer waits in pop),
// the round and shutdown.
//
// It is a head-indexed slice under a mutex rather than a channel so a
// round is taken under one critical section and the depth can be read
// without consuming.
type queue struct {
	mu     sync.Mutex
	ready  sync.Cond // a request was pushed, or the queue closed
	q      []*request
	head   int
	limit  int // admission bound on the depth
	round  int // bound on one pop
	closed bool
}

func newQueue(limit, round int) *queue {
	q := &queue{limit: limit, round: round}
	q.ready.L = &q.mu
	return q
}

// push admits req. It refuses with ErrOverloaded when the queue is full
// and with ErrClosed after close.
func (q *queue) push(req *request) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.q)-q.head >= q.limit {
		return ErrOverloaded
	}
	if q.head > 0 && len(q.q) == cap(q.q) {
		// Drop the consumed prefix before growing: depth, not history.
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	q.q = append(q.q, req)
	q.ready.Signal()
	return nil
}

// pop parks until requests are queued, then moves the oldest — as many
// as are queued, up to the round bound — into dst and returns it; after
// close it returns dst empty.
func (q *queue) pop(dst []*request) []*request {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.q) == q.head && !q.closed {
		q.ready.Wait()
	}
	n := min(len(q.q)-q.head, q.round)
	dst = append(dst, q.q[q.head:q.head+n]...)
	clear(q.q[q.head : q.head+n]) // release for GC
	q.head += n
	if q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
	}
	return dst
}

// depth reports the queued request count.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q) - q.head
}

// close refuses every later push, wakes the parked popper and hands
// back what was still queued.
func (q *queue) close() []*request {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.ready.Broadcast()
	rest := q.q[q.head:]
	q.q, q.head = nil, 0
	return rest
}
