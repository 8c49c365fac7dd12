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

// TestQueueBatchStaysContiguous: what one push admitted pops in order
// and unbroken, whatever was pushed around it.
func TestQueueBatchStaysContiguous(t *testing.T) {
	q := newQueue(16, 8)
	reqs := make([]*request, 7)
	for i := range reqs {
		reqs[i] = &request{}
	}
	for _, batch := range [][]*request{reqs[:1], reqs[1:6], reqs[6:]} {
		if _, err := q.push(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.pop(nil); !slices.Equal(got, reqs) {
		t.Errorf("popped %d requests out of push order", len(got))
	}
	if d := q.depth(); d != 0 {
		t.Errorf("depth after draining = %d, want 0", d)
	}
}

// TestQueueStaysItsDepth: a queue that never runs empty does not grow
// with what has passed through it.
func TestQueueStaysItsDepth(t *testing.T) {
	q := newQueue(8, 1)
	if _, err := q.push(make([]*request, 4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		q.pop(nil)
		if depth, err := q.push([]*request{{}}); err != nil || depth != 4 {
			t.Fatalf("push %d = (%d, %v), want (4, nil)", i, depth, err)
		}
	}
	if c := cap(q.q); c > 64 {
		t.Errorf("10000 requests through a queue of depth 4 left it %d slots", c)
	}
}

// TestQueuePushAllOrNone: a push that does not fit queues nothing and
// says so; one that fits exactly is admitted.
func TestQueuePushAllOrNone(t *testing.T) {
	q := newQueue(4, 8)
	if depth, err := q.push(make([]*request, 3)); err != nil || depth != 3 {
		t.Fatalf("push of 3 into 4 = (%d, %v), want (3, nil)", depth, err)
	}
	if _, err := q.push(make([]*request, 2)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("push past capacity returned %v, want ErrOverloaded", err)
	}
	if d := q.depth(); d != 3 {
		t.Fatalf("refused push left depth %d, want 3", d)
	}
	if depth, err := q.push(make([]*request, 1)); err != nil || depth != 4 {
		t.Errorf("push to exactly capacity = (%d, %v), want (4, nil)", depth, err)
	}
}

// TestQueueRoundIsBounded pins the round rule: a pop takes the oldest
// requests, as many as are queued up to the round bound — one from the
// run queue, up to eight from a group-committing queue — however many
// poppers were parked when they were pushed.
func TestQueueRoundIsBounded(t *testing.T) {
	for _, round := range []int{1, 8} {
		for _, poppers := range []int{1, 2, 4} {
			for _, depth := range []int{1, 4, 8, 9, 64} {
				q := newQueue(64, round)
				rounds := parkPoppers(t, q, poppers)
				reqs := make([]*request, depth)
				for i := range reqs {
					reqs[i] = &request{}
				}
				if _, err := q.push(reqs); err != nil {
					t.Fatal(err)
				}
				// Each parked popper takes one round while any is queued.
				var want, got []int
				taken := map[*request]bool{}
				for rest := depth; len(want) < poppers && rest > 0; rest -= want[len(want)-1] {
					want = append(want, min(rest, round))
				}
				for range want {
					r := <-rounds
					got = append(got, len(r))
					for _, req := range r {
						taken[req] = true
					}
				}
				slices.Sort(got)
				slices.Reverse(got)
				if !slices.Equal(got, want) {
					t.Errorf("round %d, %d poppers, depth %d: rounds %v, want %v", round, poppers, depth, got, want)
				}
				// They took the oldest; the rest pops in order, a round at a time.
				next := len(taken)
				for i, req := range reqs {
					if taken[req] != (i < next) {
						t.Fatalf("round %d, %d poppers, depth %d: request %d taken out of order", round, poppers, depth, i)
					}
				}
				for next < depth {
					n := min(depth-next, round)
					if r := q.pop(nil); !slices.Equal(r, reqs[next:next+n]) {
						t.Fatalf("round %d, depth %d: pop at %d took %d, want the next %d in order", round, depth, next, len(r), n)
					}
					next += n
				}
				// A popper the push had no request for is still parked: close
				// releases it empty-handed.
				if rest := q.close(); len(rest) != 0 {
					t.Errorf("round %d, %d poppers, depth %d: %d left queued", round, poppers, depth, len(rest))
				}
				for i := len(want); i < poppers; i++ {
					if r := <-rounds; len(r) != 0 {
						t.Errorf("round %d, %d poppers, depth %d: a popper beyond the depth took %d", round, poppers, depth, len(r))
					}
				}
			}
		}
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
	reqs := []*request{{}, {}, {}}
	if _, err := q.push(reqs); err != nil {
		t.Fatal(err)
	}
	if rest := q.close(); !slices.Equal(rest, reqs) {
		t.Errorf("close returned %d requests, want the 3 queued, in order", len(rest))
	}
	if _, err := q.push(reqs[:1]); !errors.Is(err, ErrClosed) {
		t.Errorf("push after close returned %v, want ErrClosed", err)
	}
	if r := q.pop(nil); len(r) != 0 {
		t.Errorf("pop after close took %d requests", len(r))
	}
	if d := q.depth(); d != 0 {
		t.Errorf("depth after close = %d, want 0", d)
	}
}
