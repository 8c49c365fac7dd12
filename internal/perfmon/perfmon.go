// Package perfmon implements SNAP-1's performance collection network: an
// instrumentation path independent of the primary interconnect so that
// measurement does not degrade communication bandwidth.
//
// Each PE, when a monitoring event triggers, writes an 8-bit event code
// and a 24-bit status word to its serial-port register and resumes
// execution without delay; the serial controller shifts the record out
// over a 2 Mb/s link to the central collection board, which timestamps it
// into a FIFO for analysis.
package perfmon

import (
	"sync"

	"snap1/internal/timing"
)

// EventCode is the 8-bit monitoring event identifier.
type EventCode uint8

// Event codes used by the simulator's instrumentation.
const (
	EvNone         EventCode = iota
	EvInstrStart             // status: opcode
	EvInstrEnd               // status: opcode
	EvPropTaskRun            // status: local node count touched
	EvMsgSend                // status: destination cluster
	EvMsgRecv                // status: source level
	EvBarrierEnter           // status: tier
	EvBarrierDone            // status: messages this barrier (low 24 bits)
	EvCollect                // status: nodes collected
	EvQueueFull              // status: queue depth

	// Engine-level events, emitted by the query-serving layer rather
	// than a PE. The "PE index" is the replica that served the query
	// (-1 while still queued).
	EvQuerySubmit   // status: queries admitted together
	EvBatchDispatch // status: batch size dispatched to one replica
	EvQueryDone     // status: low 24 bits of the query's virtual time
	EvQueryCancel   // status: queries the cancellation ended
	EvQueryShed     // status: in-flight count at admission rejection
	EvResultHit     // status: low 24 bits of the cached virtual time
	_               // retired (query fusion); later codes keep their numbers

	// Resilience events, emitted by the fault layer and the engine's
	// health machinery.
	EvFaultInjected      // status: fault site index
	EvReplicaQuarantined // status: consecutive timeouts at quarantine
	EvQueryRetried       // status: attempt number of the retry
	EvReplicaRestored    // status: probe successes at restoration

	// Interconnect locality events, emitted once per propagation phase at
	// the barrier — the counters the partitioning/placement work targets.
	EvCutTraffic // status: inter-cluster activations this phase (cut links exercised)
	EvHopTraffic // status: port-to-port ICN transfers this phase

	_ // retired (compile-tier optimizer); later codes keep their numbers
	_ // retired (delta replay); later codes keep their numbers

	// Online write-path events. EvWriteCommitted is emitted once per
	// epoch publish, by the write that made it; status is 1, the writes
	// the epoch carries.
	EvWriteCommitted
)

func (e EventCode) String() string {
	switch e {
	case EvInstrStart:
		return "instr-start"
	case EvInstrEnd:
		return "instr-end"
	case EvPropTaskRun:
		return "prop-task"
	case EvMsgSend:
		return "msg-send"
	case EvMsgRecv:
		return "msg-recv"
	case EvBarrierEnter:
		return "barrier-enter"
	case EvBarrierDone:
		return "barrier-done"
	case EvCollect:
		return "collect"
	case EvQueueFull:
		return "queue-full"
	case EvQuerySubmit:
		return "query-submit"
	case EvBatchDispatch:
		return "batch-dispatch"
	case EvQueryDone:
		return "query-done"
	case EvQueryCancel:
		return "query-cancel"
	case EvQueryShed:
		return "query-shed"
	case EvResultHit:
		return "result-hit"
	case EvFaultInjected:
		return "fault-injected"
	case EvReplicaQuarantined:
		return "replica-quarantined"
	case EvQueryRetried:
		return "query-retried"
	case EvReplicaRestored:
		return "replica-restored"
	case EvCutTraffic:
		return "cut-traffic"
	case EvHopTraffic:
		return "hop-traffic"
	case EvWriteCommitted:
		return "write-committed"
	default:
		return "none"
	}
}

// Record is one collected monitoring event: the 8-bit code, the 24-bit
// status word, the emitting PE, and the central-board arrival timestamp.
type Record struct {
	Source    int // PE index
	Code      EventCode
	Status    uint32 // 24 bits significant
	Timestamp timing.Time
}

// LinkRate is the per-PE serial link speed (2 Mb/s).
const LinkRate = 2_000_000 // bits per second

// recordBits is the on-wire record size: 8-bit code + 24-bit status.
const recordBits = 32

// shiftTime is the serial shift-out time for one record at LinkRate.
const shiftTime = timing.Time(recordBits) * timing.Second / LinkRate

// Collector is the central collection board: a timestamping FIFO fed by
// per-PE serial links.
type Collector struct {
	mu       sync.Mutex
	fifo     []Record
	capacity int
	dropped  int64
	busy     map[int]timing.Time // per-PE link busy-until
}

// NewCollector returns a collector whose FIFO holds capacity records;
// records arriving at a full FIFO are counted as dropped, as a saturated
// instrumentation system would. Monitoring that is off is a nil
// collector at the emitter (machine.Config.Monitor), not a state of this
// one.
func NewCollector(capacity int) *Collector {
	return &Collector{capacity: capacity, busy: make(map[int]timing.Time)}
}

// Emit records an event from a PE at virtual time now. The PE resumes
// without delay; the record's timestamp reflects serial-link occupancy
// (back-to-back events from one PE arrive at least one shift time apart).
func (c *Collector) Emit(pe int, code EventCode, status uint32, now timing.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := now
	if b, ok := c.busy[pe]; ok && b > start {
		start = b
	}
	arrive := start + shiftTime
	c.busy[pe] = arrive
	if len(c.fifo) >= c.capacity {
		c.dropped++
		return
	}
	c.fifo = append(c.fifo, Record{Source: pe, Code: code, Status: status & 0xFFFFFF, Timestamp: arrive})
}

// Drain removes and returns all collected records (transfer to mass
// storage, in the prototype's terms).
func (c *Collector) Drain() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.fifo
	c.fifo = nil
	return out
}

// Dropped reports records lost to FIFO overflow.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Len reports the records currently buffered.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fifo)
}
