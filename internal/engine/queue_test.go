package engine

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// parkPoppers starts n goroutines that each pop one round and report it,
// and returns once all of them are parked in pop.
func parkPoppers(t *testing.T, q *queue, n int) <-chan []*request {
	t.Helper()
	base := parkedInPop()
	rounds := make(chan []*request, n)
	for i := 0; i < n; i++ {
		go func() { rounds <- q.pop(nil) }()
	}
	waitFor(t, "poppers parked", func() bool { return parkedInPop() == base+n })
	return rounds
}

// parkedInPop counts the goroutines parked in some queue's pop, waiting
// for a push. A queue keeps no such count, so the test reads the
// scheduler's: every goroutine's stack.
func parkedInPop() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[sync.Cond.Wait") && strings.Contains(g, "engine.(*queue).pop(") {
			n++
		}
	}
	return n
}

// pushAll pushes reqs one at a time, failing the test on a refusal.
func pushAll(t *testing.T, q *queue, reqs []*request) {
	t.Helper()
	for _, req := range reqs {
		if err := q.push(req); err != nil {
			t.Fatal(err)
		}
	}
}

// newRequests makes n distinct empty requests.
func newRequests(n int) []*request {
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{}
	}
	return reqs
}

// TestQueueStaysItsDepth: a queue that never runs empty does not grow
// with what has passed through it, and a push past its capacity is
// refused and leaves the depth as it was.
func TestQueueStaysItsDepth(t *testing.T) {
	q := newQueue(4, 1)
	pushAll(t, q, newRequests(4))
	if err := q.push(&request{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("push past capacity returned %v, want ErrOverloaded", err)
	}
	if d := q.depth(); d != 4 {
		t.Fatalf("refused push left depth %d, want 4", d)
	}
	for i := 0; i < 10000; i++ {
		q.pop(nil)
		if err := q.push(&request{}); err != nil || q.depth() != 4 {
			t.Fatalf("push %d: %v, depth %d; want nil, 4", i, err, q.depth())
		}
	}
	if c := cap(q.q); c > 64 {
		t.Errorf("10000 requests through a queue of depth 4 left it %d slots", c)
	}
}

// TestQueueRoundIsBounded pins the group-commit rule: a pop takes the
// oldest requests, in push order, as many as are queued up to the round
// bound; and a popper parked on an empty queue is woken by one push.
func TestQueueRoundIsBounded(t *testing.T) {
	for _, depth := range []int{1, 4, 8, 9, 64} {
		q := newQueue(64, writeBatch)
		reqs := newRequests(depth)
		pushAll(t, q, reqs)
		for next := 0; next < depth; {
			n := min(depth-next, writeBatch)
			if r := q.pop(nil); !slices.Equal(r, reqs[next:next+n]) {
				t.Fatalf("depth %d: pop at %d took %d, want the next %d in order", depth, next, len(r), n)
			}
			next += n
		}
		if d := q.depth(); d != 0 {
			t.Errorf("depth %d: %d left after draining", depth, d)
		}
	}

	q := newQueue(64, writeBatch)
	rounds := parkPoppers(t, q, 1)
	req := &request{}
	pushAll(t, q, []*request{req})
	if r := <-rounds; !slices.Equal(r, []*request{req}) {
		t.Errorf("the parked popper took %d requests, want the one pushed", len(r))
	}
}

// TestQueueClose: close wakes every parked popper with nothing, hands
// back what was queued, and every later push is refused and pop returns
// at once.
func TestQueueClose(t *testing.T) {
	q := newQueue(8, 8)
	rounds := parkPoppers(t, q, 3)
	if rest := q.close(); len(rest) != 0 {
		t.Errorf("close of an empty queue returned %d requests", len(rest))
	}
	for i := 0; i < 3; i++ {
		if r := <-rounds; len(r) != 0 {
			t.Errorf("a popper woken by close took %d requests", len(r))
		}
	}

	q = newQueue(8, 8)
	reqs := newRequests(3)
	pushAll(t, q, reqs)
	if rest := q.close(); !slices.Equal(rest, reqs) {
		t.Errorf("close returned %d requests, want the 3 queued, in order", len(rest))
	}
	if err := q.push(reqs[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("push after close returned %v, want ErrClosed", err)
	}
	if r := q.pop(nil); len(r) != 0 {
		t.Errorf("pop after close took %d requests", len(r))
	}
	if d := q.depth(); d != 0 {
		t.Errorf("depth after close = %d, want 0", d)
	}
}
