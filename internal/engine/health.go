package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
)

// HealthPolicy governs replica quarantine and reintegration: a replica
// whose queries time out FailureThreshold times in a row is pulled from
// the shard ring, probed every ProbeInterval with an empty program, and
// restored after ProbeSuccesses consecutive passes. The zero value of
// any field selects its default.
type HealthPolicy struct {
	// FailureThreshold is the consecutive-timeout count that
	// quarantines a replica (default 3); negative disables quarantine.
	FailureThreshold int
	// ProbeInterval is how often a quarantined replica is probed
	// (default 100ms).
	ProbeInterval time.Duration
	// ProbeSuccesses is the consecutive probe passes that restore a
	// quarantined replica (default 2).
	ProbeSuccesses int
	// ProbeTimeout bounds one probe run (default QueryTimeout, or
	// 250ms when no query timeout is configured).
	ProbeTimeout time.Duration
}

// DefaultHealthPolicy returns the defaults quarantine operates under.
func DefaultHealthPolicy() HealthPolicy {
	return HealthPolicy{FailureThreshold: 3, ProbeInterval: 100 * time.Millisecond, ProbeSuccesses: 2, ProbeTimeout: 250 * time.Millisecond}
}

func (p HealthPolicy) normalized(queryTimeout time.Duration) HealthPolicy {
	d := DefaultHealthPolicy()
	if p.FailureThreshold == 0 {
		p.FailureThreshold = d.FailureThreshold
	}
	if p.ProbeInterval == 0 {
		p.ProbeInterval = d.ProbeInterval
	}
	if p.ProbeSuccesses == 0 {
		p.ProbeSuccesses = d.ProbeSuccesses
	}
	if p.ProbeTimeout == 0 {
		if queryTimeout > 0 {
			p.ProbeTimeout = queryTimeout
		} else {
			p.ProbeTimeout = d.ProbeTimeout
		}
	}
	return p
}

func (p HealthPolicy) validate() []error {
	var errs []error
	if p.ProbeInterval < 0 {
		errs = append(errs, fmt.Errorf("Health.ProbeInterval must be >= 0, got %v", p.ProbeInterval))
	}
	if p.ProbeSuccesses < 0 {
		errs = append(errs, fmt.Errorf("Health.ProbeSuccesses must be >= 0, got %d", p.ProbeSuccesses))
	}
	if p.ProbeTimeout < 0 {
		errs = append(errs, fmt.Errorf("Health.ProbeTimeout must be >= 0, got %v", p.ProbeTimeout))
	}
	return errs
}

// replicaHealth is one replica's failure-tracking state. The state word
// is atomic so the submit path's shard selection reads it without a
// lock; the counters stay behind the mutex.
type replicaHealth struct {
	state          atomic.Int32 // 0 healthy, 1 quarantined
	mu             sync.Mutex
	consecTimeouts int
	quarantines    uint64
	restores       uint64
}

func (h *replicaHealth) isQuarantined() bool { return h.state.Load() == 1 }

// noteTimeout records one timed-out query on replica rank and
// quarantines it at the failure threshold.
func (e *Engine) noteTimeout(rank int) {
	if e.cfg.Health.FailureThreshold < 0 {
		return
	}
	h := e.health[rank]
	h.mu.Lock()
	h.consecTimeouts++
	n := h.consecTimeouts
	fire := n >= e.cfg.Health.FailureThreshold && h.state.Load() == 0
	if fire {
		h.state.Store(1)
		h.quarantines++
	}
	h.mu.Unlock()
	if fire {
		e.st.add(&e.st.Quarantines, 1)
		e.emit(rank, perfmon.EvReplicaQuarantined, uint32(n), 0)
		// The quarantined shard's backlog is now steal-only; rouse the
		// healthy replicas to drain it.
		e.wakeAll()
	}
}

// noteSuccess resets replica rank's consecutive-timeout streak.
func (e *Engine) noteSuccess(rank int) {
	h := e.health[rank]
	h.mu.Lock()
	h.consecTimeouts = 0
	h.mu.Unlock()
}

// probeProgram is the health probe: an empty (and therefore read-only,
// instantly valid) program. A wedged replica still wedges on it — the
// whole-run fault decisions fire before the instruction stream — so a
// probe pass means the replica genuinely responds again.
var probeProgram = isa.NewProgram()

// probeQuarantined periodically probes rank's quarantined machine and
// reintegrates it after the policy's consecutive passes. It returns
// false when the engine shut down first.
func (e *Engine) probeQuarantined(rank int, m *machine.Machine) bool {
	hp := e.cfg.Health
	ticker := time.NewTicker(hp.ProbeInterval)
	defer ticker.Stop()
	streak := 0
	for {
		select {
		case <-e.done:
			return false
		case <-ticker.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), hp.ProbeTimeout)
		_, err := m.RunContext(ctx, probeProgram)
		cancel()
		if err != nil {
			streak = 0
			continue
		}
		if streak++; streak < hp.ProbeSuccesses {
			continue
		}
		h := e.health[rank]
		h.mu.Lock()
		h.consecTimeouts = 0
		h.restores++
		h.state.Store(0)
		h.mu.Unlock()
		e.st.add(&e.st.Restores, 1)
		e.emit(rank, perfmon.EvReplicaRestored, uint32(streak), 0)
		e.wakeAll()
		return true
	}
}

// wakeAll hands every parked replica a token (e.g. after quarantine
// shifts who must drain which shard).
func (e *Engine) wakeAll() {
	for i := 0; i < cap(e.notify); i++ {
		select {
		case e.notify <- struct{}{}:
		default:
			return
		}
	}
}

// pickShard maps a query onto the shard ring, routing around
// quarantined replicas: the base shard rotates with the attempt number
// so a retry lands on a different replica, and a linear probe finds the
// next healthy owner. With every replica quarantined it falls back to
// the base shard — work stealing and reintegration still drain it.
func (e *Engine) pickShard(h uint64, attempt int) int {
	n := len(e.shards)
	base := int((h + uint64(attempt)) % uint64(n))
	for i := 0; i < n; i++ {
		s := base + i
		if s >= n {
			s -= n
		}
		if !e.health[s].isQuarantined() {
			return s
		}
	}
	return base
}

// healthyReplicas counts replicas currently in the shard ring.
func (e *Engine) healthyReplicas() int {
	n := 0
	for _, h := range e.health {
		if !h.isQuarantined() {
			n++
		}
	}
	return n
}

// ReplicaHealth is one replica's externally visible health state.
type ReplicaHealth struct {
	Rank                int    `json:"rank"`
	State               string `json:"state"` // "healthy" | "quarantined"
	ConsecutiveTimeouts int    `json:"consecutive_timeouts"`
	Quarantines         uint64 `json:"quarantines"`
	Restores            uint64 `json:"restores"`
}

// HealthReport is the engine's serving-capacity summary: "ok" with the
// full ring, "degraded" while quarantined replicas are being routed
// around, "unavailable" with none healthy.
type HealthReport struct {
	Status   string          `json:"status"`
	Replicas []ReplicaHealth `json:"replicas"`
}

// Health snapshots per-replica health state.
func (e *Engine) Health() HealthReport {
	out := HealthReport{Replicas: make([]ReplicaHealth, len(e.health))}
	healthy := 0
	for i, h := range e.health {
		r := ReplicaHealth{Rank: i, State: "healthy"}
		if h.isQuarantined() {
			r.State = "quarantined"
		} else {
			healthy++
		}
		h.mu.Lock()
		r.ConsecutiveTimeouts = h.consecTimeouts
		r.Quarantines = h.quarantines
		r.Restores = h.restores
		h.mu.Unlock()
		out.Replicas[i] = r
	}
	switch {
	case healthy == len(e.health):
		out.Status = "ok"
	case healthy > 0:
		out.Status = "degraded"
	default:
		out.Status = "unavailable"
	}
	return out
}
