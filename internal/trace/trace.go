// Package trace accumulates the measurements the paper's evaluation
// section reports: per-instruction-group counts and execution time
// (Figs. 6, 18, 19, 20), marker traffic per barrier synchronization point
// (Fig. 8), the four parallel-overhead components — instruction
// broadcast, message communication, barrier synchronization, and result
// collection (Fig. 21) — and how evenly the partition spread the marker
// units' work over the clusters.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"snap1/internal/barrier"
	"snap1/internal/isa"
	"snap1/internal/timing"
)

// Overhead is the Fig. 21 breakdown of parallel overheads.
type Overhead struct {
	Broadcast       timing.Time // configuration phase: global bus broadcasts
	Communication   timing.Time // propagation phase: inter-PE message time
	Synchronization timing.Time // propagation→accumulation transition barriers
	Collection      timing.Time // accumulation phase: COLLECT retrievals
}

// Total sums the four components.
func (o Overhead) Total() timing.Time {
	return o.Broadcast + o.Communication + o.Synchronization + o.Collection
}

// Profile is one program run's instrumentation record.
type Profile struct {
	// Per instruction-group counts and attributed simulated time.
	GroupCount [isa.NumGroups]int64
	GroupTime  [isa.NumGroups]timing.Time

	// Per opcode counts.
	OpCount [isa.NumOpcodes]int64

	// Per barrier-synchronization point: inter-cluster marker activation
	// messages (the Fig. 8 series) and tier depth.
	Barriers []barrier.Stats

	// PhaseDurations aligns with Barriers: each propagation phase's
	// simulated duration and overlap degree.
	PhaseDurations []timing.Time
	PhaseBetas     []int

	// Parallel overhead components.
	Overhead Overhead

	// Propagation detail.
	PropInstrs   int64 // PROPAGATE instructions executed
	PropSteps    int64 // individual link traversals
	PropMessages int64 // inter-cluster activations
	PropHops     int64 // port-to-port ICN transfers carrying them
	SendBursts   int64 // coalesced same-next-hop send groups
	PropMaxDepth int   // longest propagation path observed

	// Collection detail.
	CollectedNodes int64

	// Cluster load, the measure a mapping function is judged by (§ II-A).
	// MUBusyMax and MUBusyMean are the busiest cluster's and the mean
	// cluster's marker-unit busy time per MU over the run (MUBusySkew is
	// their ratio). CriticalBusy sums, over propagation phases, the per-MU busy
	// time of the cluster whose last completion set the phase's barrier;
	// CriticalSpan sums those phases' spans, broadcast to barrier
	// (CriticalBusyShare is their ratio).
	MUBusyMax, MUBusyMean      timing.Time
	CriticalBusy, CriticalSpan timing.Time

	// End-to-end simulated execution time.
	Elapsed timing.Time
}

// Record attributes one executed instruction and its simulated duration.
func (p *Profile) Record(op isa.Opcode, d timing.Time) {
	g := isa.GroupOf(op)
	p.GroupCount[g]++
	p.GroupTime[g] += d
	p.OpCount[op]++
}

// AddBarrier appends one synchronization point's traffic statistics.
func (p *Profile) AddBarrier(s barrier.Stats) {
	p.Barriers = append(p.Barriers, s)
	p.PropMessages += s.Messages
	if s.Levels > p.PropMaxDepth {
		p.PropMaxDepth = s.Levels
	}
}

// Merge folds another profile into p (multi-program applications such as
// the two-stage parser report one combined profile).
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	for g := 0; g < isa.NumGroups; g++ {
		p.GroupCount[g] += o.GroupCount[g]
		p.GroupTime[g] += o.GroupTime[g]
	}
	for op := 0; op < isa.NumOpcodes; op++ {
		p.OpCount[op] += o.OpCount[op]
	}
	p.Barriers = append(p.Barriers, o.Barriers...)
	p.PhaseDurations = append(p.PhaseDurations, o.PhaseDurations...)
	p.PhaseBetas = append(p.PhaseBetas, o.PhaseBetas...)
	p.Overhead.Broadcast += o.Overhead.Broadcast
	p.Overhead.Communication += o.Overhead.Communication
	p.Overhead.Synchronization += o.Overhead.Synchronization
	p.Overhead.Collection += o.Overhead.Collection
	p.PropInstrs += o.PropInstrs
	p.PropSteps += o.PropSteps
	p.PropMessages += o.PropMessages
	p.PropHops += o.PropHops
	p.SendBursts += o.SendBursts
	if o.PropMaxDepth > p.PropMaxDepth {
		p.PropMaxDepth = o.PropMaxDepth
	}
	p.CollectedNodes += o.CollectedNodes
	p.MUBusyMax += o.MUBusyMax
	p.MUBusyMean += o.MUBusyMean
	p.CriticalBusy += o.CriticalBusy
	p.CriticalSpan += o.CriticalSpan
	p.Elapsed += o.Elapsed
}

// MUBusySkew reports the busiest cluster's marker-unit busy time per MU
// over the mean cluster's (1 is perfect balance; a merged profile weighs each run
// by its busy time). It is 0 when no marker unit worked.
func (p *Profile) MUBusySkew() float64 {
	if p.MUBusyMean <= 0 {
		return 0
	}
	return float64(p.MUBusyMax) / float64(p.MUBusyMean)
}

// CriticalBusyShare reports how much of the propagation phases' time the
// critical cluster's marker units spent working: near 1 the slowest
// cluster was saturated, and spreading its work would shorten the phase;
// well below 1 it mostly waited on messages, and locality would. It is 0
// when no phase ran.
func (p *Profile) CriticalBusyShare() float64 {
	if p.CriticalSpan <= 0 {
		return 0
	}
	return float64(p.CriticalBusy) / float64(p.CriticalSpan)
}

// TotalInstrs reports the total instructions executed.
func (p *Profile) TotalInstrs() int64 {
	var n int64
	for _, c := range p.GroupCount {
		n += c
	}
	return n
}

// TotalTime reports the total attributed instruction time.
func (p *Profile) TotalTime() timing.Time {
	var t timing.Time
	for _, d := range p.GroupTime {
		t += d
	}
	return t
}

// GroupShare reports a group's fraction of instruction count and time,
// the two bars Fig. 6 plots per instruction class.
func (p *Profile) GroupShare(g isa.Group) (countFrac, timeFrac float64) {
	ti, tt := p.TotalInstrs(), p.TotalTime()
	if ti > 0 {
		countFrac = float64(p.GroupCount[g]) / float64(ti)
	}
	if tt > 0 {
		timeFrac = float64(p.GroupTime[g]) / float64(tt)
	}
	return countFrac, timeFrac
}

// MessagesPerBarrier returns the Fig. 8 series: one value per
// synchronization point.
func (p *Profile) MessagesPerBarrier() []int64 {
	out := make([]int64, len(p.Barriers))
	for i, b := range p.Barriers {
		out[i] = b.Messages
	}
	return out
}

// MeanMessagesPerBarrier reports the average of the Fig. 8 series
// (the paper measures 11.49 for its parse).
func (p *Profile) MeanMessagesPerBarrier() float64 {
	if len(p.Barriers) == 0 {
		return 0
	}
	var sum int64
	for _, b := range p.Barriers {
		sum += b.Messages
	}
	return float64(sum) / float64(len(p.Barriers))
}

// String renders a compact multi-line profile report.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed %s, %d instructions\n", p.Elapsed, p.TotalInstrs())
	type row struct {
		g isa.Group
		c int64
		t timing.Time
	}
	var rows []row
	for g := 0; g < isa.NumGroups; g++ {
		if p.GroupCount[g] > 0 {
			rows = append(rows, row{isa.Group(g), p.GroupCount[g], p.GroupTime[g]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].t > rows[j].t })
	for _, r := range rows {
		cf, tf := p.GroupShare(r.g)
		fmt.Fprintf(&b, "  %-12s %7d instrs (%5.1f%%)  %12s (%5.1f%%)\n",
			r.g, r.c, cf*100, r.t, tf*100)
	}
	fmt.Fprintf(&b, "  propagation: %d steps, %d messages, %d hops, max depth %d, %d barriers (mean %.2f msgs/barrier)\n",
		p.PropSteps, p.PropMessages, p.PropHops, p.PropMaxDepth, len(p.Barriers), p.MeanMessagesPerBarrier())
	fmt.Fprintf(&b, "  overhead: broadcast %s, comm %s, sync %s, collect %s\n",
		p.Overhead.Broadcast, p.Overhead.Communication,
		p.Overhead.Synchronization, p.Overhead.Collection)
	fmt.Fprintf(&b, "  load: MU-busy skew %.2f, critical cluster busy %.1f%% of phase time\n",
		p.MUBusySkew(), p.CriticalBusyShare()*100)
	return b.String()
}
