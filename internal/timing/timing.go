// Package timing provides the virtual time base and the calibrated
// cycle-cost model used by every simulated SNAP-1 component.
//
// The original SNAP-1 prototype ran its array PEs (TMS320C30 DSPs) at
// 25 MHz and its controller at 32 MHz. All simulated work is accounted in
// integer picoseconds so that both clock domains (40 ns and 31.25 ns
// periods) and the 80 ns interconnect hop latency are represented exactly.
package timing

import (
	"math"
	"strconv"
	"time"
)

// Time is a point (or span) of virtual time, in picoseconds.
//
// Picoseconds in an int64 cover roughly 106 virtual days, far beyond any
// simulated experiment, while keeping every clock-domain period integral.
type Time int64

// Common spans.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Nanoseconds returns t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a float64 count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns t as a float64 count of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t as a float64 count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t to a time.Duration, rounding to nanoseconds.
func (t Time) Duration() time.Duration {
	return time.Duration(t/Nanosecond) * time.Nanosecond
}

// String formats t with an auto-selected unit.
func (t Time) String() string {
	var buf [24]byte
	return string(t.AppendTo(buf[:0]))
}

// AppendTo appends String's text to dst without going through fmt.
func (t Time) AppendTo(dst []byte) []byte {
	if t < 0 {
		dst = append(dst, '-')
		t = -t
	}
	switch {
	case t < Nanosecond:
		return append(strconv.AppendInt(dst, int64(t), 10), "ps"...)
	case t < Microsecond:
		return append(strconv.AppendFloat(dst, t.Nanoseconds(), 'f', 2, 64), "ns"...)
	case t < Millisecond:
		return append(strconv.AppendFloat(dst, t.Microseconds(), 'f', 2, 64), "µs"...)
	case t < Second:
		return append(strconv.AppendFloat(dst, t.Milliseconds(), 'f', 2, 64), "ms"...)
	default:
		return append(strconv.AppendFloat(dst, t.Seconds(), 'f', 3, 64), 's')
	}
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Hz is a clock frequency in cycles per second.
type Hz int64

// Paper clock rates (Section IV: "32 MHz controller and 25 MHz array PE
// clock speed").
const (
	PEClock         Hz = 25_000_000
	ControllerClock Hz = 32_000_000
)

// Period returns the duration of a single cycle at frequency f.
func (f Hz) Period() Time {
	if f <= 0 {
		return 0
	}
	return Time(int64(Second) / int64(f))
}

// Cycles returns the duration of n cycles at frequency f.
func (f Hz) Cycles(n int64) Time { return Time(n) * f.Period() }

// Clock is a monotone virtual clock owned by one simulated functional
// unit (PU, MU, CU, or controller processor). Clocks are not safe for
// concurrent use; each unit advances only its own clock and units
// reconcile through Sync at interaction points.
type Clock struct {
	freq Hz
	now  Time
}

// NewClock returns a clock at virtual time zero ticking at freq.
func NewClock(freq Hz) *Clock { return &Clock{freq: freq} }

// Now reports the clock's current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative d is ignored and
// overflow saturates: virtual clocks are monotone.
func (c *Clock) Advance(d Time) {
	if d <= 0 {
		return
	}
	if c.now+d < c.now {
		c.now = Time(math.MaxInt64)
		return
	}
	c.now += d
}

// Tick advances the clock by n cycles of its own frequency.
func (c *Clock) Tick(n int64) { c.Advance(c.freq.Cycles(n)) }

// Sync advances the clock to t if t is later: the receive rule of the
// virtual-time model ("arrival time = max(local, sender + latency)").
func (c *Clock) Sync(t Time) {
	if t > c.now {
		c.now = t
	}
}

// Reset rewinds the clock to zero (between experiment runs).
func (c *Clock) Reset() { c.now = 0 }

// CostModel carries every per-operation cycle cost used by the simulator.
// Costs are in cycles of the owning unit's clock domain unless the field
// documents otherwise. The default values are calibrated so the absolute
// magnitudes match the paper's reported figures:
//
//   - SET/CLEAR-MARKER over a 1K-node cluster ≈ 50 µs,
//   - PROPAGATE from several hundred µs depending on path length,
//   - 80 ns port-to-port ICN hop,
//   - broadcast overhead small and constant.
type CostModel struct {
	// PU (processing unit) costs.
	DecodeCycles  int64 // decode + task setup per SNAP instruction
	EnqueueCycles int64 // place one task in marker processing memory

	// MU (marker unit) costs.
	StatusWordCycles int64 // boolean/set/clear over one 32-node status word
	NodeTestCycles   int64 // per-node inspection during SEARCH
	RelSlotCycles    int64 // scan one relation-table slot
	PropUpdateCycles int64 // marker update incl. float op, per traversed link
	ContHopCycles    int64 // follow one preprocessor continuation link (no function)
	TaskSwitchCycles int64 // dequeue one propagation task

	// CU (communication unit) costs.
	MsgAssembleCycles    int64 // assemble or disassemble one 64-bit message
	HopLatency           Time  // ICN port-to-port latency per hop (80 ns)
	MailboxEnqueueCycles int64 // DMA of one message into an ICN mailbox

	// Controller costs (controller clock domain).
	BroadcastCycles        int64 // broadcast one instruction on the global bus
	IssueCycles            int64 // PCP→SCP FIFO transfer per instruction
	CollectNodeCycles      int64 // retrieve one node ID from a cluster dual-port
	CollectSetupPerCluster int64 // per-cluster dual-port switch during COLLECT

	// Barrier synchronization costs (controller clock domain).
	BarrierBaseCycles       int64 // AND-tree settle + SIGI sample
	BarrierPerClusterCycles int64 // read one cluster's level counters
	BarrierPerLevelCycles   int64 // reconcile one tier of the counter sum

	// Multiport memory arbitration.
	ArbiterGrantCycles int64 // request/grant round trip for a semaphore
}

// DefaultCostModel returns the calibrated cost table described above.
func DefaultCostModel() CostModel {
	return CostModel{
		DecodeCycles:  180,
		EnqueueCycles: 12,

		StatusWordCycles: 34,
		NodeTestCycles:   6,
		RelSlotCycles:    24,
		PropUpdateCycles: 430,
		ContHopCycles:    14,
		TaskSwitchCycles: 90,

		MsgAssembleCycles:    24,
		HopLatency:           80 * Nanosecond,
		MailboxEnqueueCycles: 10,

		BroadcastCycles:        64,
		IssueCycles:            16,
		CollectNodeCycles:      40,
		CollectSetupPerCluster: 220,

		BarrierBaseCycles:       90,
		BarrierPerClusterCycles: 24,
		BarrierPerLevelCycles:   12,

		ArbiterGrantCycles: 8,
	}
}

// PECost converts n PE-domain cycles to time.
func (m CostModel) PECost(n int64) Time { return PEClock.Cycles(n) }

// CtrlCost converts n controller-domain cycles to time.
func (m CostModel) CtrlCost(n int64) Time { return ControllerClock.Cycles(n) }
