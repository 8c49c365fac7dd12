package barrier

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestImmediateCompletionWhenAllIdle(t *testing.T) {
	b := New(2)
	done := make(chan Stats, 1)
	go func() { done <- b.WaitGlobal() }()
	for c := 0; c < 2; c++ {
		go func(c int) {
			seq := b.WakeSeq(c)
			b.WaitQuiescent(c, seq)
		}(c)
	}
	select {
	case s := <-done:
		if s.Messages != 0 || s.Levels != 0 {
			t.Fatalf("empty barrier stats = %+v", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("barrier did not complete")
	}
}

func TestCountersBlockCompletion(t *testing.T) {
	b := New(1)
	b.Created(1)
	idle := make(chan bool, 1)
	go func() {
		seq := b.WakeSeq(0)
		idle <- b.WaitQuiescent(0, seq)
	}()
	select {
	case <-idle:
		t.Fatal("barrier completed with a message in flight")
	case <-time.After(50 * time.Millisecond):
	}
	// Wake the cluster (message delivery), consume, and go idle again.
	b.Wake(0)
	if <-idle {
		t.Fatal("wake must not report completion")
	}
	b.Consumed(1)
	done := make(chan Stats, 1)
	go func() { done <- b.WaitGlobal() }()
	go func() {
		seq := b.WakeSeq(0)
		b.WaitQuiescent(0, seq)
	}()
	s := <-done
	if s.Messages != 1 || s.Levels != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.PerLevel[1] != 1 {
		t.Fatalf("per-level = %v", s.PerLevel)
	}
}

func TestWakeSeqClosesRace(t *testing.T) {
	b := New(1)
	seq := b.WakeSeq(0)
	b.Wake(0) // message arrives between the check and the block
	if b.WaitQuiescent(0, seq) {
		t.Fatal("stale sequence must return immediately with false")
	}
}

func TestConsumedUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Consumed below zero must panic")
		}
	}()
	New(1).Consumed(0)
}

func TestLevelClamping(t *testing.T) {
	b := New(1)
	b.Created(-5)
	b.Created(MaxLevels + 100)
	created, _, inFlight := b.Snapshot()
	if inFlight != 2 {
		t.Fatalf("inFlight = %d", inFlight)
	}
	if created[0] != 1 || created[MaxLevels-1] != 1 {
		t.Fatalf("clamping failed: %v", created)
	}
	b.Consumed(-5)
	b.Consumed(MaxLevels + 100)
	if b.Done() {
		t.Fatal("not all idle yet")
	}
}

func TestReset(t *testing.T) {
	b := New(1)
	b.Created(0)
	b.Consumed(0)
	go func() {
		seq := b.WakeSeq(0)
		b.WaitQuiescent(0, seq)
	}()
	b.WaitGlobal()
	b.Reset()
	if b.Done() {
		t.Fatal("Reset must rearm")
	}
	_, _, inFlight := b.Snapshot()
	if inFlight != 0 {
		t.Fatal("Reset must zero counters")
	}
}

// A randomized message storm: N workers create/consume messages through
// the protocol; termination must be detected exactly once, only after all
// messages balance, under the race detector.
func TestTerminationDetectionStorm(t *testing.T) {
	const clusters = 8
	for trial := 0; trial < 5; trial++ {
		b := New(clusters)
		queues := make([]chan int, clusters) // message level per entry
		for i := range queues {
			queues[i] = make(chan int, 1024)
		}
		// Seed initial work.
		rng := rand.New(rand.NewSource(int64(trial)))
		for i := 0; i < 20; i++ {
			dst := rng.Intn(clusters)
			b.Created(1)
			queues[dst] <- 1
			b.Wake(dst)
		}
		var wg sync.WaitGroup
		var processed sync.Map
		for c := 0; c < clusters; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c + 100)))
				for {
					select {
					case lvl := <-queues[c]:
						// Probabilistically spawn children BEFORE consuming,
						// per the protocol invariant.
						if lvl < 6 && rng.Intn(3) == 0 {
							dst := rng.Intn(clusters)
							b.Created(lvl + 1)
							queues[dst] <- lvl + 1
							b.Wake(dst)
						}
						b.Consumed(lvl)
						processed.Store(rng.Int63(), true)
					default:
						seq := b.WakeSeq(c)
						if len(queues[c]) > 0 {
							continue
						}
						if b.WaitQuiescent(c, seq) {
							return
						}
					}
				}
			}(c)
		}
		s := b.WaitGlobal()
		wg.Wait()
		// After completion every queue must be empty and counters balanced.
		for c := range queues {
			if len(queues[c]) != 0 {
				t.Fatalf("trial %d: queue %d not drained at termination", trial, c)
			}
		}
		created, consumed, inFlight := b.Snapshot()
		if inFlight != 0 {
			t.Fatalf("trial %d: inFlight = %d", trial, inFlight)
		}
		for lvl := range created {
			if created[lvl] != consumed[lvl] {
				t.Fatalf("trial %d: level %d unbalanced: %d created, %d consumed",
					trial, lvl, created[lvl], consumed[lvl])
			}
		}
		if s.Messages < 20 {
			t.Fatalf("trial %d: only %d messages recorded", trial, s.Messages)
		}
	}
}
