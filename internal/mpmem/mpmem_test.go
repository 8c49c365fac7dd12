package mpmem

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestArbiterMutualExclusion(t *testing.T) {
	arb := NewArbiter(1)
	var held atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				arb.Acquire()
				if held.Add(1) != 1 {
					violations.Add(1)
				}
				held.Add(-1)
				arb.Release()
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
}

// TestArbiterSeedsOnFirstContention: the tie-break source is built only
// when a request finds the grant taken, and building it then changes
// nothing: under a forced arrival order, waiters are granted exactly as
// by an arbiter whose source was seeded at construction.
func TestArbiterSeedsOnFirstContention(t *testing.T) {
	idle := NewArbiter(7)
	for i := 0; i < 100; i++ {
		idle.Acquire()
		idle.Release()
	}
	if idle.rng != nil {
		t.Error("an arbiter never contended built its random source")
	}

	const seed, rounds, waiters = 11, 3, 6
	// The reference: each arrival takes a random place among those
	// already waiting, drawn from a source seeded up front.
	ref := rand.New(rand.NewSource(seed))
	var want []int
	for r := 0; r < rounds; r++ {
		var line []int
		for w := 0; w < waiters; w++ {
			i := 0
			if n := len(line); n > 0 {
				i = ref.Intn(n + 1)
			}
			line = slices.Insert(line, i, r*waiters+w)
		}
		want = append(want, line...)
	}

	arb := NewArbiter(seed)
	queued := func() int {
		arb.mu.Lock()
		defer arb.mu.Unlock()
		return len(arb.waiters)
	}
	var got []int // appended under the grant
	for r := 0; r < rounds; r++ {
		arb.Acquire()
		var wg sync.WaitGroup
		for w := 0; w < waiters; w++ {
			id := r*waiters + w
			wg.Add(1)
			go func() {
				defer wg.Done()
				arb.Acquire()
				got = append(got, id)
				arb.Release()
			}()
			for queued() != w+1 { // one arrival at a time
				runtime.Gosched()
			}
		}
		arb.Release()
		wg.Wait()
	}
	if !slices.Equal(got, want) {
		t.Errorf("grant order %v, want %v", got, want)
	}
}

func TestArbiterReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire must panic")
		}
	}()
	NewArbiter(1).Release()
}

func TestSemaphoreTableCriticalSections(t *testing.T) {
	arb := NewArbiter(2)
	tbl := NewTable(4, arb)
	// Counters guarded by semaphores: lost updates reveal broken locking.
	counters := make([]int, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sem := (g + i) % 4
				tbl.Lock(sem)
				counters[sem]++
				tbl.Unlock(sem)
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != 8*500 {
		t.Fatalf("lost updates: total = %d, want 4000", total)
	}
}

func TestUnlockFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of a free semaphore must panic")
		}
	}()
	NewTable(1, NewArbiter(1)).Unlock(0)
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](4)
	for i := 0; i < 4; i++ {
		if !q.TryPut(i) {
			t.Fatal("TryPut into a queue with room")
		}
	}
	if q.TryPut(9) {
		t.Fatal("TryPut into full queue must fail")
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	// Take two and put two more, so the ring wraps and order must survive it.
	for i := 0; i < 6; i++ {
		v, ok := q.TryGet()
		if !ok || v != i {
			t.Fatalf("TryGet = %d,%v want %d", v, ok, i)
		}
		if i < 2 && !q.TryPut(4+i) {
			t.Fatal("TryPut into a queue with room")
		}
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue must fail")
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue[int](8)
	const producers, items = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				for !q.TryPut(p*items + i) {
					runtime.Gosched() // full: let a consumer drain
				}
			}
		}(p)
	}
	var seen sync.Map
	var got atomic.Int64
	var cwg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for got.Load() < producers*items {
				v, ok := q.TryGet()
				if !ok {
					runtime.Gosched()
					continue
				}
				if _, dup := seen.LoadOrStore(v, true); dup {
					t.Errorf("duplicate delivery of %d", v)
				}
				got.Add(1)
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	if got.Load() != producers*items {
		t.Fatalf("delivered %d, want %d", got.Load(), producers*items)
	}
}

func TestQueueZeroCapacityClamped(t *testing.T) {
	q := NewQueue[int](0)
	if !q.TryPut(1) || q.TryPut(2) {
		t.Fatal("capacity must clamp to 1")
	}
}
