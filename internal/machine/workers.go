package machine

import "sync"

// workerPool is the concurrent engine's persistent per-cluster worker
// set. The seed engine spawned one goroutine per cluster per flush;
// under an overlap-window-heavy program that is thousands of goroutine
// create/destroy cycles per run. The pool starts each cluster's worker
// once (lazily, on the first concurrent phase) and parks it between
// flushes on a generation gate: the controller publishes the phase's
// overlap window and advances the generation, every worker runs its
// cluster's phaseLoop to quiescence, and the last worker to finish
// releases the controller. Nothing about simulated time changes — the
// pool is pure host machinery around the unchanged phaseLoop.
type workerPool struct {
	mu    sync.Mutex
	start *sync.Cond // workers park here between phases
	done  *sync.Cond // controller parks here while a phase runs

	gen     uint64       // phase generation; advancing it releases workers
	entries []batchEntry // the overlap window of the current phase
	running int          // workers still inside phaseLoop this phase
	stopped bool         // Close requested; workers exit at next park
}

// startWorkers builds the pool and launches one worker per cluster.
func (m *Machine) startWorkers() *workerPool {
	p := &workerPool{}
	p.start = sync.NewCond(&p.mu)
	p.done = sync.NewCond(&p.mu)
	for _, c := range m.clusters {
		go p.run(m, c)
	}
	return p
}

// run is one cluster's persistent worker: park, run a phase, park.
func (p *workerPool) run(m *Machine, c *cluster) {
	var seen uint64
	for {
		p.mu.Lock()
		for p.gen == seen && !p.stopped {
			p.start.Wait()
		}
		if p.stopped {
			p.mu.Unlock()
			return
		}
		seen = p.gen
		entries := p.entries
		p.mu.Unlock()

		c.phaseLoop(m, entries)

		p.mu.Lock()
		p.running--
		if p.running == 0 {
			p.done.Broadcast()
		}
		p.mu.Unlock()
	}
}

// beginPhase publishes the overlap window and releases all n workers.
func (p *workerPool) beginPhase(entries []batchEntry, n int) {
	p.mu.Lock()
	p.entries = entries
	p.running = n
	p.gen++
	p.start.Broadcast()
	p.mu.Unlock()
}

// waitPhase blocks until every worker has parked again. On return all
// per-cluster phase state (stats, clocks) is safely readable by the
// controller: each worker's final writes happen before its running
// decrement under the pool lock.
func (p *workerPool) waitPhase() {
	p.mu.Lock()
	for p.running > 0 {
		p.done.Wait()
	}
	p.entries = nil
	p.mu.Unlock()
}

// stop makes every parked worker exit. Must not be called mid-phase.
func (p *workerPool) stop() {
	p.mu.Lock()
	p.stopped = true
	p.start.Broadcast()
	p.mu.Unlock()
}
