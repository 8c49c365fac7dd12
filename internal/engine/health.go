package engine

import (
	"context"
	"sync"
	"time"

	"snap1/internal/isa"
	"snap1/internal/perfmon"
)

// Quarantine and reintegration run on fixed values: a replica whose
// runs blow the engine's per-attempt deadline (QueryTimeout)
// quarantineAfter times in a row leaves the replica pool for a prober,
// which runs an empty program on it every probeInterval, each probe
// bounded by QueryTimeout (probeTimeout without one), and returns it to
// the pool after restoreAfter consecutive passes.
const (
	quarantineAfter = 3
	probeInterval   = 100 * time.Millisecond
	restoreAfter    = 2
	probeTimeout    = 250 * time.Millisecond
)

// replicaHealth is one replica's failure-tracking state.
type replicaHealth struct {
	mu             sync.Mutex
	quarantined    bool
	consecTimeouts int
	quarantines    uint64
	restores       uint64
}

func (h *replicaHealth) isQuarantined() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quarantined
}

// noteTimeout records one attempt that blew the engine's per-attempt
// deadline (QueryTimeout) on replica rank and quarantines it at the
// failure threshold.
func (e *Engine) noteTimeout(rank int) {
	h := e.health[rank]
	h.mu.Lock()
	h.consecTimeouts++
	n := h.consecTimeouts
	fire := n >= quarantineAfter && !h.quarantined
	if fire {
		h.quarantined = true
		h.quarantines++
	}
	h.mu.Unlock()
	if fire {
		e.st.add(&e.st.Quarantines, 1)
		e.emit(rank, perfmon.EvReplicaQuarantined, uint32(n), 0)
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

// probeQuarantined owns quarantined replica rank, withdrawn from the pool:
// it probes the replica every probeInterval and, after restoreAfter
// consecutive passes, restores it to the pool. It gives up when the
// engine closes, a probe in progress with it: a probe runs under the
// engine's life, so a replica that wedges on it holds Close up for no
// longer than that takes.
func (e *Engine) probeQuarantined(rank int) {
	defer e.wg.Done()
	m := e.machines[rank]
	timeout := e.cfg.QueryTimeout
	if timeout == 0 {
		timeout = probeTimeout
	}
	ticker := time.NewTicker(probeInterval)
	defer ticker.Stop()
	streak := 0
	for {
		select {
		case <-e.life.Done():
			return
		case <-ticker.C:
		}
		ctx, cancel := context.WithTimeout(e.life, timeout)
		_, err := m.RunContext(ctx, probeProgram)
		cancel()
		if err != nil {
			streak = 0
			continue
		}
		if streak++; streak < restoreAfter {
			continue
		}
		h := e.health[rank]
		h.mu.Lock()
		h.consecTimeouts = 0
		h.restores++
		h.quarantined = false
		h.mu.Unlock()
		e.st.add(&e.st.Restores, 1)
		e.emit(rank, perfmon.EvReplicaRestored, uint32(streak), 0)
		e.pool.restore(rank)
		return
	}
}

// healthyReplicas counts replicas currently serving (not quarantined).
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
// full pool, "degraded" while some replicas are quarantined,
// "unavailable" with none healthy.
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
		h.mu.Lock()
		if h.quarantined {
			r.State = "quarantined"
		} else {
			healthy++
		}
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
