package engine

import (
	"math/bits"
	"strconv"
	"sync"
	"time"

	"snap1/internal/perfmon"
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

// MeanMicros reports the stage's mean latency in microseconds.
func (h LatencyHist) MeanMicros() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.TotalMicros) / float64(h.Count)
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
	Replicas     int `json:"replicas"`
	IdleReplicas int `json:"idle_replicas"`
	QueueDepth   int `json:"queue_depth"`
	InFlight     int `json:"in_flight"`

	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Rejected  uint64 `json:"rejected"`
	// Overloaded counts submissions shed by admission control
	// (ErrOverloaded): queue full or in-flight ceiling reached.
	Overloaded uint64 `json:"overloaded"`

	// Batches counts serving rounds; BatchedQueries the queries they
	// carried. MaxBatchSize is the largest single round observed.
	// Steals counts rounds served off another replica's shard;
	// StolenQueries the queries those rounds carried.
	Batches        uint64 `json:"batches"`
	BatchedQueries uint64 `json:"batched_queries"`
	MaxBatchSize   int    `json:"max_batch_size"`
	Steals         uint64 `json:"steals"`
	StolenQueries  uint64 `json:"stolen_queries"`

	// Query-fusion counters: fused machine runs, the queries they
	// coalesced, and queries kept out of fusion groups by reason
	// ("mutating", "fn", "planes", "rules", "generation", "ambiguous",
	// "error").
	FusedBatches  uint64            `json:"fused_batches"`
	FusedQueries  uint64            `json:"fused_queries"`
	FusionRejects map[string]uint64 `json:"fusion_rejects,omitempty"`

	CompileHits   uint64 `json:"compile_cache_hits"`
	CompileMisses uint64 `json:"compile_cache_misses"`

	// Optimizer counters: distinct programs the compile-tier optimizer
	// rewrote, the instructions those rewrites deleted, the marker-plane
	// demand they handed back to the fusion planner, and optimized runs
	// that tripped the runtime origin-ambiguity backstop and re-ran the
	// program as submitted.
	OptPrograms         uint64 `json:"opt_programs"`
	OptInstrsEliminated uint64 `json:"opt_instrs_eliminated"`
	OptPlanesFreed      uint64 `json:"opt_planes_freed"`
	OptFallbacks        uint64 `json:"opt_fallbacks"`

	// Result-cache counters: hits served without touching a replica,
	// misses that went to execution, queries collapsed onto an
	// identical in-flight execution (singleflight), the cache's
	// resident entry count, and entries swept out eagerly because a
	// write publish superseded their generation.
	ResultHits       uint64 `json:"result_cache_hits"`
	ResultMisses     uint64 `json:"result_cache_misses"`
	DedupedQueries   uint64 `json:"deduped_queries"`
	ResultCacheSize  int    `json:"result_cache_size"`
	ResultGenEvicted uint64 `json:"result_gen_evicted"`

	// OptCacheEvictions counts optimizer-cache entries displaced by its
	// LRU bound (the cache is capped at the compile cache's capacity).
	OptCacheEvictions uint64 `json:"opt_cache_evictions"`

	// Write-path counters (zero unless Config.Writes): mutating
	// programs committed and failed; epoch publishes (group commit can
	// fold several writes into one); incremental replica delta
	// applications and the delta records they replayed; and replica
	// syncs that had to fall back to a full KB re-download (truncated
	// delta log or a non-replayable record). KBGeneration is the
	// currently published KB generation every new read observes.
	Writes        uint64 `json:"writes"`
	WriteFailures uint64 `json:"write_failures"`
	WriteCommits  uint64 `json:"write_commits"`
	DeltasApplied uint64 `json:"deltas_applied"`
	DeltaNodes    uint64 `json:"delta_nodes"`
	FullReloads   uint64 `json:"full_reloads"`
	KBGeneration  uint64 `json:"kb_generation"`

	// Resilience counters: retries issued and queries whose retry
	// budget ran out; replica quarantines and restorations; and the
	// current serving capacity — HealthyReplicas in the shard ring,
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

	// Per-stage wall-clock latency: assembly+rule compilation, submit
	// queue residency, execution (including collection), and write
	// commits (serialized writer run plus publish).
	Compile   LatencyHist `json:"compile_latency"`
	QueueWait LatencyHist `json:"queue_latency"`
	Run       LatencyHist `json:"run_latency"`
	Write     LatencyHist `json:"write_latency"`

	// Events counts engine-level monitoring events by name.
	Events map[string]uint64 `json:"events,omitempty"`
}

// stats is the engine's mutable counter set. One mutex guards it all:
// every critical section is a handful of integer updates, invisible next
// to a query's execution time.
type stats struct {
	mu sync.Mutex

	replicas int

	submitted, completed, failed, canceled, rejected uint64
	overloaded                                       uint64
	batches, batchedQueries                          uint64
	steals, stolenQueries                            uint64
	fusedBatches, fusedQueries                       uint64
	fusionRejects                                    map[string]uint64
	maxBatch                                         int
	cacheHits, cacheMisses                           uint64
	optPrograms, optInstrs, optPlanes, optFallbacks  uint64
	resultHits, resultMisses, deduped                uint64
	resultGenEvicted                                 uint64
	retries, retriesExhausted                        uint64
	quarantines, restores                            uint64
	icnMessages, icnHops, icnBursts                  uint64
	writes, writeFailures, writeCommits              uint64
	deltasApplied, deltaNodes, fullReloads           uint64

	compileH, queueH, runH, writeH hist

	events map[perfmon.EventCode]uint64
}

func (s *stats) submit(n int) {
	s.mu.Lock()
	s.submitted += uint64(n)
	s.mu.Unlock()
}

func (s *stats) reject() {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
}

func (s *stats) cancel() {
	s.mu.Lock()
	s.canceled++
	s.mu.Unlock()
}

func (s *stats) batch(size int) {
	s.mu.Lock()
	s.batches++
	s.batchedQueries += uint64(size)
	if size > s.maxBatch {
		s.maxBatch = size
	}
	s.mu.Unlock()
}

func (s *stats) shed() {
	s.mu.Lock()
	s.overloaded++
	s.mu.Unlock()
}

func (s *stats) steal(size int) {
	s.mu.Lock()
	s.steals++
	s.stolenQueries += uint64(size)
	s.mu.Unlock()
}

func (s *stats) cacheHit() {
	s.mu.Lock()
	s.cacheHits++
	s.mu.Unlock()
}

// optimized records one distinct program the optimizer rewrote and
// what the rewrite bought: instructions deleted and planes freed.
func (s *stats) optimized(instrs, planes int) {
	s.mu.Lock()
	s.optPrograms++
	s.optInstrs += uint64(instrs)
	s.optPlanes += uint64(planes)
	s.mu.Unlock()
}

// optFallback records one optimized run discarded by the machine's
// origin-ambiguity detector and re-run unoptimized.
func (s *stats) optFallback() {
	s.mu.Lock()
	s.optFallbacks++
	s.mu.Unlock()
}

func (s *stats) resultHit() {
	s.mu.Lock()
	s.resultHits++
	s.mu.Unlock()
}

func (s *stats) resultMiss() {
	s.mu.Lock()
	s.resultMisses++
	s.mu.Unlock()
}

func (s *stats) dedup() {
	s.mu.Lock()
	s.deduped++
	s.mu.Unlock()
}

func (s *stats) retry() {
	s.mu.Lock()
	s.retries++
	s.mu.Unlock()
}

func (s *stats) retryExhausted() {
	s.mu.Lock()
	s.retriesExhausted++
	s.mu.Unlock()
}

func (s *stats) quarantine() {
	s.mu.Lock()
	s.quarantines++
	s.mu.Unlock()
}

func (s *stats) restore() {
	s.mu.Lock()
	s.restores++
	s.mu.Unlock()
}

// icn accumulates a served query's interconnect traffic profile.
// fusedRun records one fused machine run answering n queries (each of
// which is also counted by run).
func (s *stats) fusedRun(n int) {
	s.mu.Lock()
	s.fusedBatches++
	s.fusedQueries += uint64(n)
	s.mu.Unlock()
}

// fusionReject counts one query kept out of (or dropped from) a fusion
// group, by reason.
func (s *stats) fusionReject(reason string) {
	s.mu.Lock()
	if s.fusionRejects == nil {
		s.fusionRejects = make(map[string]uint64)
	}
	s.fusionRejects[reason]++
	s.mu.Unlock()
}

func (s *stats) icn(messages, hops, bursts int64) {
	s.mu.Lock()
	s.icnMessages += uint64(messages)
	s.icnHops += uint64(hops)
	s.icnBursts += uint64(bursts)
	s.mu.Unlock()
}

// completedCount reads the lifetime completed-query count (drain-rate
// numerator for the Retry-After estimate).
func (s *stats) completedCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed
}

func (s *stats) cacheMiss(d time.Duration) {
	s.mu.Lock()
	s.cacheMisses++
	s.compileH.observe(d)
	s.mu.Unlock()
}

func (s *stats) queueWait(d time.Duration) {
	s.mu.Lock()
	s.queueH.observe(d)
	s.mu.Unlock()
}

func (s *stats) run(d time.Duration, err error) {
	s.mu.Lock()
	s.runH.observe(d)
	if err == nil {
		s.completed++
	} else {
		s.failed++
	}
	s.mu.Unlock()
}

// write records one serialized writer run: its wall-clock latency and
// whether the mutation committed.
func (s *stats) write(d time.Duration, err error) {
	s.mu.Lock()
	s.writeH.observe(d)
	if err == nil {
		s.writes++
	} else {
		s.writeFailures++
	}
	s.mu.Unlock()
}

// commit records one epoch publish (its member writes are counted
// individually by write()).
func (s *stats) commit() {
	s.mu.Lock()
	s.writeCommits++
	s.mu.Unlock()
}

// deltaApplied records one incremental replica sync that replayed n
// delta records.
func (s *stats) deltaApplied(n int) {
	s.mu.Lock()
	s.deltasApplied++
	s.deltaNodes += uint64(n)
	s.mu.Unlock()
}

// fullReload records one replica sync that fell back to a full KB
// re-download.
func (s *stats) fullReload() {
	s.mu.Lock()
	s.fullReloads++
	s.mu.Unlock()
}

// resultGenEvict records n result-cache entries swept by a publish.
func (s *stats) resultGenEvict(n int) {
	s.mu.Lock()
	s.resultGenEvicted += uint64(n)
	s.mu.Unlock()
}

func (s *stats) event(code perfmon.EventCode) {
	s.mu.Lock()
	if s.events == nil {
		s.events = make(map[perfmon.EventCode]uint64)
	}
	s.events[code]++
	s.mu.Unlock()
}

func (s *stats) snapshot(queueDepth, idle, inFlight, resultEntries, healthy int, optEvictions, kbGen uint64) Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		Replicas:            s.replicas,
		IdleReplicas:        idle,
		QueueDepth:          queueDepth,
		InFlight:            inFlight,
		Submitted:           s.submitted,
		Completed:           s.completed,
		Failed:              s.failed,
		Canceled:            s.canceled,
		Rejected:            s.rejected,
		Overloaded:          s.overloaded,
		Batches:             s.batches,
		BatchedQueries:      s.batchedQueries,
		MaxBatchSize:        s.maxBatch,
		Steals:              s.steals,
		StolenQueries:       s.stolenQueries,
		FusedBatches:        s.fusedBatches,
		FusedQueries:        s.fusedQueries,
		CompileHits:         s.cacheHits,
		CompileMisses:       s.cacheMisses,
		OptPrograms:         s.optPrograms,
		OptInstrsEliminated: s.optInstrs,
		OptPlanesFreed:      s.optPlanes,
		OptFallbacks:        s.optFallbacks,
		ResultHits:          s.resultHits,
		ResultMisses:        s.resultMisses,
		DedupedQueries:      s.deduped,
		ResultCacheSize:     resultEntries,
		ResultGenEvicted:    s.resultGenEvicted,
		OptCacheEvictions:   optEvictions,
		Writes:              s.writes,
		WriteFailures:       s.writeFailures,
		WriteCommits:        s.writeCommits,
		DeltasApplied:       s.deltasApplied,
		DeltaNodes:          s.deltaNodes,
		FullReloads:         s.fullReloads,
		KBGeneration:        kbGen,
		Retries:             s.retries,
		RetriesExhausted:    s.retriesExhausted,
		Quarantines:         s.quarantines,
		Restores:            s.restores,
		ICNMessages:         s.icnMessages,
		ICNHops:             s.icnHops,
		ICNBursts:           s.icnBursts,
		HealthyReplicas:     healthy,
		Degraded:            healthy < s.replicas,
		Compile:             s.compileH.snapshot(),
		QueueWait:           s.queueH.snapshot(),
		Run:                 s.runH.snapshot(),
		Write:               s.writeH.snapshot(),
	}
	if len(s.fusionRejects) > 0 {
		out.FusionRejects = make(map[string]uint64, len(s.fusionRejects))
		for reason, n := range s.fusionRejects {
			out.FusionRejects[reason] = n
		}
	}
	if len(s.events) > 0 {
		out.Events = make(map[string]uint64, len(s.events))
		for code, n := range s.events {
			out.Events[code.String()] = n
		}
	}
	return out
}
