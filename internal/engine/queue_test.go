package engine

import (
	"errors"
	"slices"
	"testing"
)

// parkPoppers starts n goroutines that each pop one round and report it,
// and returns once all of them are parked in pop.
func parkPoppers(t *testing.T, q *queue, n int) <-chan []*request {
	t.Helper()
	rounds := make(chan []*request, n)
	for i := 0; i < n; i++ {
		go func() { rounds <- q.pop(nil) }()
	}
	waitFor(t, "poppers parked", func() bool { return q.parkedNow() == n })
	return rounds
}

func (q *queue) parkedNow() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.parked
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

// TestQueueRoundIsAnEvenShare pins the round rule: a round is what is
// queued divided evenly among the replicas free to take it, capped at the
// round bound (8). The poppers are parked before the push, so the rounds
// are a function of their number and the depth alone.
func TestQueueRoundIsAnEvenShare(t *testing.T) {
	for _, tc := range []struct {
		poppers, depth int
		want           []int // round sizes, largest first; the rest stays queued
	}{
		{1, 1, []int{1}}, {1, 4, []int{4}}, {1, 8, []int{8}}, {1, 9, []int{8}}, {1, 64, []int{8}},
		{2, 1, []int{1}}, {2, 4, []int{2, 2}}, {2, 8, []int{4, 4}}, {2, 9, []int{5, 4}}, {2, 64, []int{8, 8}},
		{4, 1, []int{1}}, {4, 4, []int{1, 1, 1, 1}}, {4, 8, []int{2, 2, 2, 2}}, {4, 9, []int{3, 2, 2, 2}}, {4, 64, []int{8, 8, 8, 8}},
	} {
		q := newQueue(64, 8)
		rounds := parkPoppers(t, q, tc.poppers)
		if _, err := q.push(make([]*request, tc.depth)); err != nil {
			t.Fatal(err)
		}
		got := make([]int, len(tc.want))
		taken := 0
		for i := range got {
			got[i] = len(<-rounds)
			taken += got[i]
		}
		slices.Sort(got)
		slices.Reverse(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%d poppers, depth %d: rounds %v, want %v", tc.poppers, tc.depth, got, tc.want)
		}
		// A popper the push had no request for is still parked: close
		// releases it empty-handed, with what no round took.
		if rest := q.close(); len(rest) != tc.depth-taken {
			t.Errorf("%d poppers, depth %d: %d left queued after rounds %v", tc.poppers, tc.depth, len(rest), got)
		}
		for i := len(tc.want); i < tc.poppers; i++ {
			if r := <-rounds; len(r) != 0 {
				t.Errorf("%d poppers, depth %d: a popper beyond the depth took %d", tc.poppers, tc.depth, len(r))
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
