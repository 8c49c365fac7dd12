package engine

import "sync"

// queue is the engine's request queue. The run queue is one: submitters
// push, every replica free to serve pops one request. The write queue is
// another, with the writer its only popper, whose round is the group
// commit. A queue owns admission (the capacity), parking (idle poppers
// wait in pop), the round bound and shutdown.
//
// It is a head-indexed slice under a mutex rather than a channel so a
// batch is admitted all or none against the capacity under one lock, a
// round is taken under one critical section, and the depth can be read
// without consuming.
type queue struct {
	mu     sync.Mutex
	ready  sync.Cond // a request was pushed, or the queue closed
	q      []*request
	head   int
	limit  int // admission bound on the depth (Config.QueueCap)
	round  int // bound on one pop
	closed bool
}

func newQueue(limit, round int) *queue {
	q := &queue{limit: limit, round: round}
	q.ready.L = &q.mu
	return q
}

// push admits reqs as one unit — all or none — contiguously and in
// order, and returns the resulting depth. It refuses with ErrOverloaded
// when they do not fit under the capacity and with ErrClosed after
// close. Every request signals once and pop never takes less than one,
// so while a request is queued either no popper is waiting or one has
// been woken for it.
func (q *queue) push(reqs []*request) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	depth := len(q.q) - q.head + len(reqs)
	if depth > q.limit {
		return 0, ErrOverloaded
	}
	if q.head > 0 && len(q.q)+len(reqs) > cap(q.q) {
		// Drop the consumed prefix before growing: depth, not history.
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	q.q = append(q.q, reqs...)
	for range reqs {
		q.ready.Signal()
	}
	return depth, nil
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

// close refuses every later push, wakes every parked popper and hands
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
