package engine

import (
	"math/bits"
	"strconv"
	"sync"
	"time"
)

// histBuckets is the per-stage latency histogram resolution: bucket i
// counts observations whose microsecond count has bit-length i, i.e.
// [2^(i-1), 2^i), with bucket 0 absorbing zero-microsecond observations.
const histBuckets = 32

// LatencyHist is a snapshot of one pipeline stage's wall-clock latency
// distribution in power-of-two microsecond buckets.
type LatencyHist struct {
	Count       uint64            `json:"count"`
	TotalMicros uint64            `json:"total_us"`
	MaxMicros   uint64            `json:"max_us"`
	Buckets     map[string]uint64 `json:"buckets,omitempty"` // "us<2^k" -> count
}

type hist struct {
	count, total, max uint64
	buckets           [histBuckets]uint64
}

func (h *hist) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	h.count++
	h.total += us
	if us > h.max {
		h.max = us
	}
	b := bits.Len64(us)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b]++
}

func (h *hist) snapshot() LatencyHist {
	out := LatencyHist{Count: h.count, TotalMicros: h.total, MaxMicros: h.max}
	if h.count > 0 {
		out.Buckets = make(map[string]uint64)
		for i, n := range h.buckets {
			if n > 0 {
				out.Buckets["us<2^"+strconv.Itoa(i)] = n
			}
		}
	}
	return out
}

// Stats is a snapshot of the engine's serving counters.
type Stats struct {
	Replicas int `json:"replicas"`
	// IdleReplicas counts the replicas that could take a request now:
	// neither running one nor quarantined.
	IdleReplicas int `json:"idle_replicas"`
	// QueueDepth counts the callers waiting for a replica.
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`

	// Submitted counts read executions admitted (a retry is a new one;
	// a batch's members are admitted together). Each ends in exactly one
	// of Completed, Failed — its run returned an error, a context that
	// ended mid-run included — or Canceled — its context had ended before
	// its run began, in line for a replica or on one. The caller that ran
	// it (or waited for a replica to run it on) counts it, once, so at
	// quiescence Submitted == Completed + Failed + Canceled. A write ends
	// the same way in Writes, WriteFailures or Canceled — its context had
	// ended before it ran, in the writer's line or on the writer — counted
	// by the caller that runs it or waited for the writer. Rejected and
	// shed (Overloaded) submissions were never admitted.
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Rejected  uint64 `json:"rejected"`
	// Overloaded counts submissions shed by admission control
	// (ErrOverloaded): a line full or the in-flight ceiling reached.
	Overloaded uint64 `json:"overloaded"`

	// Batches counts serving rounds; BatchedQueries the queries they
	// carried — one each, as a replica takes one query at a time.
	// StolenQueries, FusedQueries and OptFallbacks are always 0: there is
	// one replica pool and nothing to steal from, no query shares a run, and
	// every query runs as written. The three stay only because
	// benchmark/run.go still reads them, and go when that reader does
	// (ROADMAP item 1a).
	Batches        uint64 `json:"batches"`
	BatchedQueries uint64 `json:"batched_queries"`
	StolenQueries  uint64 `json:"stolen_queries"`
	FusedQueries   uint64 `json:"fused_queries"`
	OptFallbacks   uint64 `json:"opt_fallbacks"`

	CompileHits   uint64 `json:"compile_cache_hits"`
	CompileMisses uint64 `json:"compile_cache_misses"`

	// Result-cache counters: hits served without touching a replica,
	// misses that went to execution, the cache's resident entry count,
	// and entries swept out eagerly because a write publish superseded
	// their generation.
	ResultHits       uint64 `json:"result_cache_hits"`
	ResultMisses     uint64 `json:"result_cache_misses"`
	ResultCacheSize  int    `json:"result_cache_size"`
	ResultGenEvicted uint64 `json:"result_gen_evicted"`

	// Write-path counters (zero unless Config.Writes): mutating
	// programs committed and failed, and epoch publishes, one per write
	// that moved the KB generation. KBGeneration is the published KB
	// generation every new read observes. DeltaNodes and FullReloads are
	// always 0: a replica adopts the published snapshot, and the two stay
	// only because benchmark/run.go still reads them (ROADMAP item 1a).
	Writes        uint64 `json:"writes"`
	WriteFailures uint64 `json:"write_failures"`
	WriteCommits  uint64 `json:"write_commits"`
	DeltaNodes    uint64 `json:"delta_nodes"`
	FullReloads   uint64 `json:"full_reloads"`
	KBGeneration  uint64 `json:"kb_generation"`

	// Resilience counters: retries issued and queries whose retry
	// budget ran out; replica quarantines and restorations; and the
	// current serving capacity — HealthyReplicas not quarantined,
	// with Degraded true while any replica is quarantined.
	Retries          uint64 `json:"retries"`
	RetriesExhausted uint64 `json:"retries_exhausted"`
	Quarantines      uint64 `json:"quarantines"`
	Restores         uint64 `json:"restores"`
	HealthyReplicas  int    `json:"healthy_replicas"`
	Degraded         bool   `json:"degraded"`

	// Interconnect locality counters, summed over every successfully
	// served query's profile: inter-cluster marker activations, the
	// port-to-port hypercube transfers that carried them, and the
	// coalesced same-next-hop send groups those activations rode in.
	// ICNHops/ICNMessages is the served workload's mean hop distance —
	// the figure the partition placement stage drives toward 1.
	ICNMessages uint64 `json:"icn_messages"`
	ICNHops     uint64 `json:"icn_hops"`
	ICNBursts   uint64 `json:"icn_send_bursts"`

	// Per-stage wall-clock latency: assembly+rule compilation, the wait
	// from admission to a replica (its snapshot adoption included), execution
	// (including collection), and writes (the run on the writer).
	Compile   LatencyHist `json:"compile_latency"`
	QueueWait LatencyHist `json:"queue_latency"`
	Run       LatencyHist `json:"run_latency"`
	Write     LatencyHist `json:"write_latency"`
}

// stats is the engine's mutable counter set: a Stats value whose counters
// accumulate in place, plus what a snapshot has to derive — the live
// histograms behind the four LatencyHist fields. The gauges
// (IdleReplicas, QueueDepth, InFlight, ResultCacheSize, HealthyReplicas,
// Degraded, KBGeneration) are Engine.Stats's to fill.
// One mutex guards it all: every critical section is a handful of
// integer updates, invisible next to a query's execution time.
type stats struct {
	mu sync.Mutex
	Stats
	compileH, queueH, runH, writeH hist
}

// add bumps one counter of the set, named by address (&s.Rejected).
func (s *stats) add(counter *uint64, n int) {
	s.mu.Lock()
	*counter += uint64(n)
	s.mu.Unlock()
}

// take records a replica taking one query, which waited d for it.
func (s *stats) take(d time.Duration) {
	s.mu.Lock()
	s.Batches++
	s.BatchedQueries++
	s.queueH.observe(d)
	s.mu.Unlock()
}

// icn accumulates a served query's interconnect traffic profile.
func (s *stats) icn(messages, hops, bursts int64) {
	s.mu.Lock()
	s.ICNMessages += uint64(messages)
	s.ICNHops += uint64(hops)
	s.ICNBursts += uint64(bursts)
	s.mu.Unlock()
}

// completedCount reads the lifetime completed-query count (drain-rate
// numerator for the Retry-After estimate).
func (s *stats) completedCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Completed
}

func (s *stats) cacheMiss(d time.Duration) {
	s.mu.Lock()
	s.CompileMisses++
	s.compileH.observe(d)
	s.mu.Unlock()
}

func (s *stats) run(d time.Duration, err error) {
	s.mu.Lock()
	s.runH.observe(d)
	if err == nil {
		s.Completed++
	} else {
		s.Failed++
	}
	s.mu.Unlock()
}

// write records one run on the writer: its wall-clock latency and
// whether the mutation committed.
func (s *stats) write(d time.Duration, err error) {
	s.mu.Lock()
	s.writeH.observe(d)
	if err == nil {
		s.Writes++
	} else {
		s.WriteFailures++
	}
	s.mu.Unlock()
}

// snapshot copies the counters and derives the histogram fields; the
// caller fills the gauges.
func (s *stats) snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.Stats
	out.Compile = s.compileH.snapshot()
	out.QueueWait = s.queueH.snapshot()
	out.Run = s.runH.snapshot()
	out.Write = s.writeH.snapshot()
	return out
}
