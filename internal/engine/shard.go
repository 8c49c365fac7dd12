package engine

import "sync"

// shard is one replica's private run queue. Submit hashes each query
// onto a shard; the shard's owner replica drains it in FIFO order, and
// idle replicas steal batches from loaded shards. Splitting the submit
// path across per-replica queues removes the single dispatcher and its
// global channel as a contention point: under load, each replica mostly
// touches only its own lock.
//
// The queue is a head-indexed slice rather than a channel so a stealer
// can take several requests under one critical section and so depth can
// be read without consuming.
type shard struct {
	mu   sync.Mutex
	head int
	q    []*request
}

// push appends a batch of requests under one critical section —
// guaranteeing they sit contiguously in the queue, so one serving round
// can drain (and fuse) them together — and returns the resulting depth.
func (s *shard) push(rs []*request) int {
	s.mu.Lock()
	s.q = append(s.q, rs...)
	n := len(s.q) - s.head
	s.mu.Unlock()
	return n
}

// popN moves up to n oldest requests into dst and returns it. The
// consumed prefix is released for reuse once the queue empties.
func (s *shard) popN(n int, dst []*request) []*request {
	s.mu.Lock()
	avail := len(s.q) - s.head
	if avail < n {
		n = avail
	}
	for i := 0; i < n; i++ {
		dst = append(dst, s.q[s.head+i])
		s.q[s.head+i] = nil // release for GC
	}
	s.head += n
	if s.head == len(s.q) {
		s.q = s.q[:0]
		s.head = 0
	}
	s.mu.Unlock()
	return dst
}

// depth reports the queued request count.
func (s *shard) depth() int {
	s.mu.Lock()
	n := len(s.q) - s.head
	s.mu.Unlock()
	return n
}

// steal scans every other shard and takes up to maxBatch requests from
// the deepest one (at most half its queue, at least one), so a stalled
// or hot shard's backlog is drained by whatever replicas are idle. It
// returns dst unchanged when every other shard is empty.
func (e *Engine) steal(self int, dst []*request) []*request {
	victim, deepest := -1, 0
	for i, s := range e.shards {
		if i == self {
			continue
		}
		if d := s.depth(); d > deepest {
			victim, deepest = i, d
		}
	}
	if victim < 0 {
		return dst
	}
	n := (deepest + 1) / 2
	if n > e.cfg.MaxBatch {
		n = e.cfg.MaxBatch
	}
	return e.shards[victim].popN(n, dst)
}
