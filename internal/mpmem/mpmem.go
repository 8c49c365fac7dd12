// Package mpmem models SNAP-1's multiport memory fabric: IDT four-port
// SRAMs with concurrent-read-exclusive-write (CREW) access, the cluster
// arbiter and semaphore table that regulate type-1 (shared variable)
// traffic, and the single-writer/single-reader queue regions used for
// type-2 (PU→MU microinstruction) and type-3 (MU→CU activation) traffic.
//
// The hardware's properties that matter to the architecture are
// reproduced: reads never contend, writes to shared control state go
// through an arbitrated semaphore table, and queue regions have small
// bounded capacities so a sender is refused when a marker burst exceeds
// the buffering the interconnect can absorb (the Fig. 8 discussion).
package mpmem

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// NumPorts is the port count of one four-port memory.
const NumPorts = 4

// Arbiter grants mutually exclusive access to a semaphore table. Requests
// are served first-come-first-served; requests that arrive while no grant
// is outstanding and race each other are resolved by randomly assigned
// priority, as the paper's programmable-array-logic arbiter does.
type Arbiter struct {
	mu      sync.Mutex
	seed    int64
	rng     *rand.Rand // seeded from seed by the first contended Acquire
	busy    bool
	waiters []chan struct{}
}

// NewArbiter returns an arbiter whose simultaneous-request tie-break is
// driven by the given seed, keeping contention behaviour reproducible.
// The random source (a few KB) is built on first contention, so an
// arbiter that is never contended costs a few words.
func NewArbiter(seed int64) *Arbiter {
	return &Arbiter{seed: seed}
}

// Acquire blocks until the arbiter grants exclusive access.
func (a *Arbiter) Acquire() {
	a.mu.Lock()
	if !a.busy {
		a.busy = true
		a.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(a.seed))
	}
	// Random insertion position models the random priority assignment
	// among requests pending at grant time.
	i := 0
	if n := len(a.waiters); n > 0 {
		i = a.rng.Intn(n + 1)
	}
	a.waiters = append(a.waiters, nil)
	copy(a.waiters[i+1:], a.waiters[i:])
	a.waiters[i] = ch
	a.mu.Unlock()
	<-ch
}

// Release returns the grant, waking one waiter if any.
func (a *Arbiter) Release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.busy {
		panic("mpmem: Release without Acquire")
	}
	if len(a.waiters) == 0 {
		a.busy = false
		return
	}
	ch := a.waiters[0]
	a.waiters = a.waiters[1:]
	close(ch)
}

// SemaphoreTable is the arbitrated in-use flag table protecting critical
// sections within a cluster. Because multiport memories allow concurrent
// reads, a plain test-and-set is insufficient (both readers of the flag
// would claim ownership); every flag update goes through the arbiter.
type Table struct {
	arb   *Arbiter
	mu    sync.Mutex
	inUse []bool
	conds []*sync.Cond
}

// NewTable returns a semaphore table with n flags sharing one arbiter.
func NewTable(n int, arb *Arbiter) *Table {
	t := &Table{arb: arb, inUse: make([]bool, n), conds: make([]*sync.Cond, n)}
	for i := range t.conds {
		t.conds[i] = sync.NewCond(&t.mu)
	}
	return t
}

// Lock enters critical section sem, blocking while it is held.
func (t *Table) Lock(sem int) {
	for {
		t.arb.Acquire()
		t.mu.Lock()
		if !t.inUse[sem] {
			t.inUse[sem] = true
			t.mu.Unlock()
			t.arb.Release()
			return
		}
		// Flag is held: relinquish the table and wait for the holder.
		t.arb.Release()
		t.conds[sem].Wait()
		t.mu.Unlock()
	}
}

// Unlock leaves critical section sem.
func (t *Table) Unlock(sem int) {
	t.arb.Acquire()
	t.mu.Lock()
	if !t.inUse[sem] {
		t.mu.Unlock()
		t.arb.Release()
		panic(fmt.Sprintf("mpmem: Unlock of free semaphore %d", sem))
	}
	t.inUse[sem] = false
	t.conds[sem].Signal()
	t.mu.Unlock()
	t.arb.Release()
}

// Queue is a bounded queue region of a multiport memory: a mutex-guarded
// ring that never blocks — a full region refuses the put, an empty one
// the get. It is safe for any number of producer and consumer goroutines;
// within a SNAP-1 cluster the memory map dedicates each region to a
// single writer and single reader so no arbitration is required for
// type-2/3 traffic.
type Queue[T any] struct {
	mu   sync.Mutex
	buf  []T
	head int
	n    int
	size atomic.Int32 // mirrors n; lock-free empty-poll fast path
}

// NewQueue returns a queue region holding at most capacity entries.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		capacity = 1
	}
	return &Queue[T]{buf: make([]T, capacity)}
}

// TryPut enqueues v only if space is available.
func (q *Queue[T]) TryPut(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == len(q.buf) {
		return false
	}
	// No modulo: the capacity is not a power of two in general, and an
	// integer divide per message is measurable in the propagation hot path.
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
	q.size.Store(int32(q.n))
	return true
}

// TryGet dequeues without blocking. An empty region is detected without
// taking the lock; the polling loops of the propagation engine hit this
// path once per work item.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.size.Load() == 0 {
		return v, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	q.size.Store(int32(q.n))
	return v, true
}

// Len reports the current queue depth.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}
