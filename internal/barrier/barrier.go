// Package barrier implements SNAP-1's tiered synchronization scheme
// (Section III-C, Figs. 13-14).
//
// The problem: in MIMD propagation no one has a global view of activity.
// The controller must decide that (1) every PE is idle and (2) no marker
// activation message is in transit. SNAP-1 solves this with an AND-tree
// that reports the array-wide idle state (the SIGI interlock signal) plus
// per-level marker message counters: every message creation increments and
// every termination decrements its propagation tier's counter, so the
// barrier completes exactly when all PEs are idle and every tier's
// created-minus-consumed count is zero. Tier separation prevents the false
// detection that a single counter would allow in hardware where counter
// reports race message delivery.
//
// Protocol invariants the callers must respect:
//
//   - Created is called BEFORE the message becomes visible to any
//     receiver (before the ICN enqueue).
//   - Consumed is called AFTER all of the message's spawned children have
//     been Created.
//   - A cluster declares itself quiescent only when its local task queue
//     and ICN mailbox are empty, using the WakeSeq/WaitQuiescent pair to
//     close the check-then-block race.
package barrier

import "sync"

// MaxLevels bounds the tier counters; propagation deeper than this folds
// into the last tier (the hardware has a fixed counter bank).
const MaxLevels = 64

// Stats describes one completed barrier.
type Stats struct {
	Messages int64   // inter-cluster marker activations this barrier
	Levels   int     // deepest tier used (1-based), 0 if no messages
	PerLevel []int64 // creations per tier
}

// Tiered is one phase's synchronization state shared by the array
// clusters and the sequence control processor.
type Tiered struct {
	mu   sync.Mutex
	cond *sync.Cond

	clusters int
	idle     []bool
	wakeSeq  []uint64

	inFlight  int64 // sum over tiers of created - consumed
	created   []int64
	consumed  []int64
	maxLevel  int
	totalMsgs int64

	done bool
}

// New returns a barrier for the given cluster count with every cluster
// initially busy.
func New(clusters int) *Tiered {
	b := &Tiered{
		clusters: clusters,
		idle:     make([]bool, clusters),
		wakeSeq:  make([]uint64, clusters),
		created:  make([]int64, MaxLevels),
		consumed: make([]int64, MaxLevels),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func clampLevel(level int) int {
	if level < 0 {
		return 0
	}
	if level >= MaxLevels {
		return MaxLevels - 1
	}
	return level
}

// Created records a marker message entering flight at the given tier.
func (b *Tiered) Created(level int) {
	l := clampLevel(level)
	b.mu.Lock()
	b.created[l]++
	b.inFlight++
	b.totalMsgs++
	if l+1 > b.maxLevel {
		b.maxLevel = l + 1
	}
	b.mu.Unlock()
}

// Consumed records a marker message leaving flight at the given tier.
// Completion is re-checked because this may be the last outstanding count.
func (b *Tiered) Consumed(level int) {
	l := clampLevel(level)
	b.mu.Lock()
	b.consumed[l]++
	b.inFlight--
	if b.inFlight < 0 {
		b.mu.Unlock()
		panic("barrier: consumed more messages than created")
	}
	b.checkLocked()
	b.mu.Unlock()
}

// Wake marks cluster c busy (a message was just enqueued for it) and
// advances its wake sequence, releasing a WaitQuiescent in progress.
func (b *Tiered) Wake(c int) {
	b.mu.Lock()
	b.idle[c] = false
	b.wakeSeq[c]++
	b.cond.Broadcast()
	b.mu.Unlock()
}

// WakeSeq samples cluster c's wake sequence. A cluster reads this before
// its final empty-queue check; passing it to WaitQuiescent guarantees a
// message arriving between the check and the block is not lost.
func (b *Tiered) WakeSeq(c int) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wakeSeq[c]
}

// WaitQuiescent declares cluster c idle and blocks until either the
// barrier completes globally (returns true) or the cluster is woken by new
// work (returns false). If the wake sequence has moved past seq the call
// returns false immediately.
func (b *Tiered) WaitQuiescent(c int, seq uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.wakeSeq[c] != seq {
		return false
	}
	b.idle[c] = true
	b.checkLocked()
	for !b.done && b.wakeSeq[c] == seq {
		b.cond.Wait()
	}
	if b.done {
		return true
	}
	b.idle[c] = false
	return false
}

// checkLocked fires the barrier when the AND-tree is high and every tier
// counter balances.
func (b *Tiered) checkLocked() {
	if b.done || b.inFlight != 0 {
		return
	}
	for _, idle := range b.idle {
		if !idle {
			return
		}
	}
	b.done = true
	b.cond.Broadcast()
}

// WaitGlobal blocks the controller until the barrier completes, then
// returns the barrier's traffic statistics.
func (b *Tiered) WaitGlobal() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.done {
		b.cond.Wait()
	}
	per := make([]int64, b.maxLevel)
	copy(per, b.created[:b.maxLevel])
	return Stats{Messages: b.totalMsgs, Levels: b.maxLevel, PerLevel: per}
}

// Done reports (without blocking) whether the barrier has completed.
func (b *Tiered) Done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.done
}

// Reset rearms the barrier for the next phase: counters zeroed, clusters
// marked busy. Any goroutine still blocked in WaitQuiescent from the
// previous phase is released by the phase-end broadcast before Reset is
// called; callers must not Reset while clusters are still waiting.
func (b *Tiered) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.done = false
	b.inFlight = 0
	b.totalMsgs = 0
	b.maxLevel = 0
	for i := range b.created {
		b.created[i] = 0
		b.consumed[i] = 0
	}
	for i := range b.idle {
		b.idle[i] = false
		b.wakeSeq[i]++
	}
}

// Snapshot returns the current created/consumed tier counters (diagnostic
// view of the counter bank).
func (b *Tiered) Snapshot() (created, consumed []int64, inFlight int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := make([]int64, b.maxLevel)
	copy(c, b.created[:b.maxLevel])
	t := make([]int64, b.maxLevel)
	copy(t, b.consumed[:b.maxLevel])
	return c, t, b.inFlight
}
