package engine

import (
	"context"
	"slices"
	"sync"
)

// pool is a replica pool: the ranks of idle healthy replicas on a stack,
// and the callers waiting for one in a line. A caller takes the replica
// released last — its marker state is the one still warm, and the
// replicas below it stay idle long enough to go cold — or, when none is
// idle, joins the line, which is first come first served and bounded. A
// released replica goes straight to the oldest waiter when there is one,
// so no replica lies idle while a caller waits. The caller runs its
// program on its own goroutine: nothing is handed to a serving loop and
// nothing is handed back. One mutex guards it all.
//
// The engine keeps two: the read path's, of Config.Replicas serving
// replicas with a line of Config.QueueCap, and the write path's, of one
// rank — the writer — with a line of writeLineCap.
//
// A replica taken out of service (quarantine) is withdrawn: neither idle
// nor held until restore puts it back.
type pool struct {
	mu      sync.Mutex
	free    []int      // idle ranks; the last was released last
	line    []chan int // waiting callers, oldest first; each is handed one rank
	limit   int        // bound on len(line)
	held    int        // ranks a caller holds, or is being handed
	closed  bool
	drained sync.Cond // held reached 0 after close
}

// newPool makes a pool of ranks 0..replicas-1, all idle, rank 0 the first
// handed out.
func newPool(replicas, limit int) *pool {
	p := &pool{free: make([]int, replicas), limit: limit}
	for i := range p.free {
		p.free[i] = replicas - 1 - i
	}
	p.drained.L = &p.mu
	return p
}

// acquire hands the caller a rank to hold until release: the idle one
// released last, or else the one released to it after it waited in line.
// It refuses with ErrOverloaded when the line is full and with ErrClosed
// after close, and returns ctx's error when ctx ends first. A caller
// refused with ErrOverloaded or ErrClosed was never admitted.
func (p *pool) acquire(ctx context.Context) (int, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return -1, ErrClosed
	}
	if n := len(p.free); n > 0 {
		rank := p.free[n-1]
		p.free = p.free[:n-1]
		p.held++
		p.mu.Unlock()
		return rank, nil
	}
	if len(p.line) >= p.limit {
		p.mu.Unlock()
		return -1, ErrOverloaded
	}
	w := make(chan int, 1)
	p.line = append(p.line, w)
	p.mu.Unlock()

	select {
	case rank, ok := <-w:
		if !ok {
			return -1, ErrClosed
		}
		return rank, nil
	case <-ctx.Done():
	}
	p.mu.Lock()
	if i := slices.Index(p.line, w); i >= 0 {
		p.line = slices.Delete(p.line, i, i+1)
		p.mu.Unlock()
		return -1, ctx.Err()
	}
	p.mu.Unlock()
	// Out of the line already: a rank was handed over (or the pool
	// closed) just as ctx ended. Pass the rank on.
	if rank, ok := <-w; ok {
		p.release(rank)
	}
	return -1, ctx.Err()
}

// tryAcquire takes the idle rank released last, if there is one, without
// waiting.
func (p *pool) tryAcquire() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 || p.closed {
		return -1, false
	}
	rank := p.free[n-1]
	p.free = p.free[:n-1]
	p.held++
	return rank, true
}

// release returns a held rank: to the oldest waiter, or onto the stack.
func (p *pool) release(rank int) {
	p.mu.Lock()
	p.held--
	p.put(rank)
	p.mu.Unlock()
}

// withdraw takes a held rank out of service: it is neither idle nor held
// until restore.
func (p *pool) withdraw() {
	p.mu.Lock()
	p.held--
	if p.closed && p.held == 0 {
		p.drained.Broadcast()
	}
	p.mu.Unlock()
}

// restore puts a withdrawn rank back in service.
func (p *pool) restore(rank int) {
	p.mu.Lock()
	p.put(rank)
	p.mu.Unlock()
}

// put hands rank to the oldest waiter or pushes it onto the stack; p.mu
// is held. The hand-off is a send on a channel of one slot that nobody
// else sends on, so it never blocks.
func (p *pool) put(rank int) {
	if len(p.line) > 0 {
		w := p.line[0]
		p.line = slices.Delete(p.line, 0, 1)
		p.held++
		w <- rank
		return
	}
	p.free = append(p.free, rank)
	if p.closed && p.held == 0 {
		p.drained.Broadcast()
	}
}

// close refuses every later acquire, turns the waiting callers away with
// ErrClosed, and returns once no rank is held: every run in progress has
// ended.
func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, w := range p.line {
		close(w)
	}
	p.line = nil
	for p.held > 0 {
		p.drained.Wait()
	}
}

// gauges reports the idle ranks and the callers waiting for one.
func (p *pool) gauges() (idle, waiting int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free), len(p.line)
}
