package machine

import (
	"sort"
	"testing"

	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// The task queue's whole contract: popTask returns the pending task that
// is least on (ready, seq), seq being push order, however the pushes
// arrived — so how the pending set is stored (sorted run, heap) can never
// show in the simulated timeline. The tests drive the queue from a byte
// tape and hold it to a model that re-sorts its pending set before every
// pop that follows a push.

// queued is the model's record of one push.
type queued struct {
	ready timing.Time
	seq   uint64
}

// queueModel mirrors a cluster's queue.
type queueModel struct {
	t       testing.TB
	c       *cluster
	pending []queued
	sorted  bool // pending is in pop order: nothing pushed since the last pop
	seq     uint64
	last    timing.Time // ready of the latest push
}

func newQueueModel(t testing.TB) *queueModel {
	cfg := DefaultConfig()
	cfg.Clusters = 1
	c := newClusters(&cfg, semnet.NewTable(1, cfg.NodesPerCluster))[0]
	c.resetPhase()
	return &queueModel{t: t, c: c}
}

func (q *queueModel) push(ready timing.Time, source bool) {
	// local carries the push number, so a payload that got separated
	// from its key inside the heap shows.
	q.c.pushTask(task{local: int32(q.seq), ready: ready, isSource: source})
	q.pending = append(q.pending, queued{ready: ready, seq: q.seq})
	q.sorted = false
	q.seq++
	q.last = ready
	q.check()
}

func (q *queueModel) pop() {
	got, ok := q.c.popTask()
	if len(q.pending) == 0 {
		if ok {
			q.t.Fatalf("pop from an empty queue returned %+v", got)
		}
		return
	}
	if !q.sorted { // or a long drain is quadratic and the fuzzer calls it a hang
		sort.Slice(q.pending, func(i, j int) bool {
			a, b := q.pending[i], q.pending[j]
			return a.ready < b.ready || (a.ready == b.ready && a.seq < b.seq)
		})
		q.sorted = true
	}
	want := q.pending[0]
	q.pending = q.pending[1:]
	if !ok || got.ready != want.ready || got.seq != want.seq || got.local != int32(want.seq) {
		q.t.Fatalf("pop = (ready %d, seq %d, local %d, ok %v), want (ready %d, seq %d)",
			got.ready, got.seq, got.local, ok, want.ready, want.seq)
	}
	q.check()
}

func (q *queueModel) check() {
	if got := q.c.pendingTasks(); got != len(q.pending) {
		q.t.Fatalf("pendingTasks() = %d, want %d", got, len(q.pending))
	}
}

// play interprets tape: the low three bits of a byte pick the step, the
// high five its argument.
func (q *queueModel) play(tape []byte) {
	for _, b := range tape {
		arg := timing.Time(b >> 3)
		switch b & 7 {
		case 0: // in order: later than everything pushed so far
			q.push(q.last+arg, false)
		case 1: // a burst of equally ready tasks
			for i := timing.Time(0); i <= arg%8; i++ {
				q.push(q.last, false)
			}
		case 2: // strictly decreasing ready
			for i := timing.Time(0); i <= arg%4; i++ {
				q.push(max(q.last-1-arg, 0), false)
			}
		case 3: // one far-future push, then earlier ones: forces the heap
			base := q.last
			q.push(base+1000*(arg+1), false)
			for i := timing.Time(0); i <= arg%4; i++ {
				q.push(base+i, false)
			}
		case 4: // a source burst, as the status scan emits it
			for i := timing.Time(0); i <= arg; i++ {
				q.push(q.last, true)
			}
		case 5: // a remote delivery a little earlier than local work
			q.push(max(q.last-arg, 0), false)
		default: // 6, 7: pop
			for i := timing.Time(0); i <= arg%4; i++ {
				q.pop()
			}
		}
	}
	for len(q.pending) > 0 {
		q.pop()
	}
	q.pop() // empty: must report !ok
}

// queueTapes are the hand-written cases; the fuzz target starts from them.
var queueTapes = []struct {
	name string
	tape []byte
}{
	{"in-order", []byte{0x08, 0x10, 0x00, 0x18, 0x06, 0x08, 0x0e, 0x06}},
	{"equal-bursts", []byte{0x39, 0x06, 0x39, 0x39, 0x1e, 0x00, 0x39, 0x1e}},
	{"decreasing", []byte{0xf8, 0x0a, 0x12, 0x1a, 0x06, 0x0a, 0x12, 0x1e, 0x1a}},
	{"far-future", []byte{0x1b, 0x06, 0x08, 0x1b, 0x0e, 0x03, 0x00, 0x06, 0x1e}},
	{"source-bursts", []byte{0xfc, 0x16, 0x08, 0x0d, 0x24, 0x1e, 0x05, 0xfc, 0x1e}},
	{"pop-while-empty", []byte{0x06, 0x1e, 0x08, 0x06, 0x06, 0x24, 0x1e, 0x1e, 0x1e}},
	{"mixed", []byte{0xfc, 0x08, 0x2d, 0x39, 0x0e, 0x1b, 0x12, 0x06, 0x45, 0x10, 0x1e, 0xa3, 0x0d, 0x06, 0x24, 0x1e}},
}

func TestTaskQueueOrder(t *testing.T) {
	for _, tc := range queueTapes {
		t.Run(tc.name, func(t *testing.T) { newQueueModel(t).play(tc.tape) })
	}
	// One queue across phases: resetPhase must leave nothing behind.
	t.Run("reused", func(t *testing.T) {
		q := newQueueModel(t)
		for _, tc := range queueTapes {
			q.play(tc.tape)
			q.c.resetPhase()
			q.seq, q.last = 0, 0
		}
	})
	t.Run("reclaim", testTaskQueueReclaim)
}

// A long phase must not grow the queue with the tasks it has already
// popped: a million push/pop pairs with at most 64 pending leave a
// retained capacity set by those 64, not by the million. The run never
// drains here (draining resets it for free), so this is the slide.
func testTaskQueueReclaim(t *testing.T) {
	const pairs, pending, bound = 1_000_000, 64, 1024
	q := newQueueModel(t)
	var last timing.Time
	push := func(i int) {
		ready := last + 1
		if i%16 == 15 {
			ready = last - 3 // arrives early: takes the heap
		}
		q.c.pushTask(task{ready: ready})
		last = max(last, ready)
	}
	for i := 0; i < pending; i++ {
		push(i)
	}
	for i := 0; i < pairs; i++ {
		if _, ok := q.c.popTask(); !ok {
			t.Fatalf("pair %d: queue empty", i)
		}
		push(i)
	}
	if got := q.c.pendingTasks(); got != pending {
		t.Fatalf("pendingTasks() = %d, want %d", got, pending)
	}
	if got := cap(q.c.run) + cap(q.c.tasks); got > bound {
		t.Fatalf("after %d pairs with %d pending the queue retains room for %d tasks (run %d, heap %d), want at most %d",
			pairs, pending, got, cap(q.c.run), cap(q.c.tasks), bound)
	}
}

func FuzzTaskQueueOrder(f *testing.F) {
	for _, tc := range queueTapes {
		f.Add(tc.tape)
	}
	f.Fuzz(func(t *testing.T, tape []byte) { newQueueModel(t).play(tape) })
}
