package engine

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitLine returns once p has n callers waiting.
func waitLine(t *testing.T, p *pool, n int) {
	t.Helper()
	waitFor(t, "callers in line", func() bool { _, waiting := p.gauges(); return waiting == n })
}

// TestPoolHandsEachReplicaToOneHolder drives a pool of four ranks with
// many acquirers, each under a random deadline or a cancellation that
// may fire while it waits, while it is being handed a rank, or not at
// all. No rank is ever held by two at once, and at quiescence every rank
// is idle again: a waiter handed a rank just as its context ended passed
// it on rather than dropping it. The second half makes that hand-off
// race on purpose, a thousand times: a waiter cancelled as the holder
// releases, with a second waiter behind it that must get the rank
// whichever way the race goes.
func TestPoolHandsEachReplicaToOneHolder(t *testing.T) {
	const ranks, acquirers, rounds = 4, 32, 200
	p := newPool(ranks, acquirers)
	var holders [ranks]atomic.Int32
	var wg sync.WaitGroup
	for a := 0; a < acquirers; a++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(200))*time.Microsecond)
				if rng.Intn(4) == 0 {
					go cancel()
				}
				rank, err := p.acquire(ctx)
				cancel()
				if err != nil {
					if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
						t.Errorf("acquire: %v", err)
						return
					}
					continue
				}
				if n := holders[rank].Add(1); n != 1 {
					t.Errorf("rank %d held by %d callers at once", rank, n)
				}
				time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				holders[rank].Add(-1)
				p.release(rank)
			}
		}(int64(a))
	}
	wg.Wait()
	if idle, waiting := p.gauges(); idle != ranks || waiting != 0 || p.held != 0 {
		t.Fatalf("at quiescence: %d idle, %d waiting, %d held; want %d, 0, 0", idle, waiting, p.held, ranks)
	}
	free := slices.Clone(p.free)
	slices.Sort(free)
	if !slices.Equal(free, []int{0, 1, 2, 3}) {
		t.Fatalf("idle ranks %v, want each of 0..3 once", free)
	}

	p = newPool(1, 2)
	for i := 0; i < 1000; i++ {
		rank, err := p.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		first := make(chan error, 1)
		go func() {
			r, err := p.acquire(ctx)
			if err == nil {
				p.release(r)
			}
			first <- err
		}()
		waitLine(t, p, 1)
		second := make(chan error, 1)
		go func() {
			r, err := p.acquire(context.Background())
			if err == nil {
				p.release(r)
			}
			second <- err
		}()
		waitLine(t, p, 2)
		go cancel()
		p.release(rank)
		if err := <-first; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: the cancelled waiter: %v", i, err)
		}
		select {
		case err := <-second:
			if err != nil {
				t.Fatalf("round %d: the waiter behind it: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the rank handed to a cancelled waiter was never passed on", i)
		}
	}
}

// TestPoolWaitersAreFIFO: callers that find no replica idle are served
// in the order they came, one release each.
func TestPoolWaitersAreFIFO(t *testing.T) {
	const waiters = 8
	p := newPool(1, waiters)
	rank, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := p.acquire(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			p.release(r)
		}(i)
		waitLine(t, p, i+1)
	}
	if _, err := p.acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Errorf("acquire with the line full returned %v, want ErrOverloaded", err)
	}
	p.release(rank)
	wg.Wait()
	want := make([]int, waiters)
	for i := range want {
		want[i] = i
	}
	if !slices.Equal(order, want) {
		t.Errorf("waiters served in order %v, want %v", order, want)
	}
}

// TestPoolTakesTheReplicaReleasedLast: an idle replica is taken last in,
// first out — rank 0 first on a fresh pool — so sequential traffic keeps
// one replica warm and leaves the rest idle.
func TestPoolTakesTheReplicaReleasedLast(t *testing.T) {
	p := newPool(3, 1)
	var got []int
	for range 3 {
		r, ok := p.tryAcquire()
		if !ok {
			t.Fatal("a fresh pool ran out of idle ranks")
		}
		got = append(got, r)
	}
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("a fresh pool handed out %v, want 0, 1, 2", got)
	}
	if _, ok := p.tryAcquire(); ok {
		t.Error("tryAcquire took a rank from a pool with none idle")
	}
	p.release(2)
	p.release(0)
	for range 3 {
		if r, _ := p.tryAcquire(); r != 0 {
			t.Fatalf("took rank %d, want 0, the one released last", r)
		}
		p.release(0)
	}
}

// TestPoolCloseWaitsForHolders: close turns waiting callers away with
// ErrClosed, refuses later ones, and returns only once the ranks held
// are released.
func TestPoolCloseWaitsForHolders(t *testing.T) {
	p := newPool(1, 4)
	rank, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waiter := make(chan error, 1)
	go func() {
		_, err := p.acquire(context.Background())
		waiter <- err
	}()
	waitLine(t, p, 1)
	closed := make(chan struct{})
	go func() {
		p.close()
		close(closed)
	}()
	if err := <-waiter; !errors.Is(err, ErrClosed) {
		t.Errorf("a waiter at close got %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("close returned while a rank was held")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := p.acquire(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("acquire after close returned %v, want ErrClosed", err)
	}
	p.release(rank)
	<-closed
}
