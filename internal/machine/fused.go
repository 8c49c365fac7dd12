package machine

import (
	"context"
	"errors"
	"math/bits"
	"sync/atomic"

	"snap1/internal/isa"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// Fused-run support: executing an isa.Fused program (N renamed queries
// in one machine run) with two extra behaviors over a plain RunContext:
//
//   - Origin-tie detection. Fused scheduling perturbs task order, and
//     while final marker bits and values are order-free (the merge
//     functions are commutative/associative/idempotent), the origin
//     register of a complex marker records the source of the first
//     task delivering the final value — which is ambiguous when two
//     distinct-origin final contributions tie. The store-update path
//     detects exactly that tie during fused runs and the run fails
//     with ErrFusionAmbiguous so the caller can fall back to solo
//     dispatch. (Fuse already rejects the non-strict apply functions
//     for which the tie is undetectable.)
//
//   - Wide (plane-vectorized) execution. Clone PROPAGATEs from a
//     fused plane group — same rule FSM, same function, bit-equal
//     source rows — are executed by ONE task stream with a value lane
//     per member query: one task switch, one status-word access, one
//     relation-table walk and one queue operation serve all member
//     planes, which is the paper's 128-bit status word doing all
//     marker planes in a single access. Per-lane visit slots and
//     store updates keep each lane's delivery set identical to its
//     solo run; a lane whose parent delivery did not improve drops
//     out of the child mask. Wide execution runs only on the lockstep
//     engine with no fault injector armed; otherwise the fused
//     program executes scalar (same final state, different virtual
//     time attribution).

// ErrFusionAmbiguous reports that a fused run observed an equal-value,
// distinct-origin marker delivery tie — the one observable difference
// fused scheduling could introduce. The run's results are discarded and
// the caller re-runs the queries unfused.
var ErrFusionAmbiguous = errors.New("machine: fused run hit origin-ambiguous value tie")

// fusedRun is the per-RunFused context consulted by the store-update
// and flush paths.
type fusedRun struct {
	f       *isa.Fused
	groupOf []int16 // per fused instruction: plane-group index, -1 none
	amb     atomic.Bool
}

// maxWideLanes bounds a wide group's lane count to the task mask width.
const maxWideLanes = 16

func newFusedRun(f *isa.Fused) *fusedRun {
	fc := &fusedRun{f: f, groupOf: make([]int16, len(f.Program.Instrs))}
	for i := range fc.groupOf {
		fc.groupOf[i] = -1
	}
	for gi, g := range f.Groups {
		if len(g.Instrs) > maxWideLanes {
			continue // too wide for the task mask; runs scalar
		}
		for _, idx := range g.Instrs {
			fc.groupOf[idx] = int16(gi)
		}
	}
	return fc
}

// RunFused executes a fused program. On success the result is the
// fused run's (demultiplexing to per-query results is the caller's
// job, via f.InstrOf on each Collection.Instr). ErrFusionAmbiguous
// means the run detected an origin tie; any other error is as for
// RunContext.
func (m *Machine) RunFused(ctx context.Context, f *isa.Fused) (*Result, error) {
	fc := newFusedRun(f)
	m.fusedCtx = fc
	res, err := m.RunContext(ctx, f.Program)
	m.fusedCtx = nil
	m.widePlans = nil
	if err != nil {
		return nil, err
	}
	if fc.amb.Load() {
		return nil, ErrFusionAmbiguous
	}
	return res, nil
}

// laneVal is one wide lane's value/origin pair; a wide task's K lanes
// live as a contiguous block in the owning cluster's arena.
type laneVal struct {
	value  float32
	origin semnet.NodeID
}

// widePlan is one plane group scheduled wide in the current flush.
type widePlan struct {
	entries []batchEntry // the K member PROPAGATEs, lane order
	m2      []semnet.MarkerID
	rule    rules.Token
	fn      semnet.FuncCode
}

// planWide splits the overlap window into wide plans and a scalar
// remainder. A plane group goes wide only when every member is in this
// window, its source rows are bit-equal on every cluster (clone inputs
// verified at run time, not assumed), and its lane count fits the task
// mask. Everything else stays in the scalar entry list unchanged.
func (m *Machine) planWide(batch []batchEntry, fc *fusedRun) (scalar []batchEntry, plans []widePlan) {
	var members map[int16][]batchEntry
	for _, e := range batch {
		if g := fc.groupOf[e.idx]; g >= 0 {
			if members == nil {
				members = make(map[int16][]batchEntry)
			}
			members[g] = append(members[g], e)
		}
	}
	if members == nil {
		return batch, nil
	}
	wide := make(map[int16]bool, len(members))
	for g, es := range members {
		if len(es) != len(fc.f.Groups[g].Instrs) || len(es) < 2 {
			continue // group split across windows: scalar
		}
		equal := true
	verify:
		for k := 1; k < len(es); k++ {
			for _, c := range m.clusters {
				if !c.store.RowsEqual(es[0].in.M1, es[k].in.M1) {
					equal = false
					break verify
				}
			}
		}
		if !equal {
			continue
		}
		wide[g] = true
		p := widePlan{
			entries: es,
			m2:      make([]semnet.MarkerID, len(es)),
			rule:    es[0].in.Rule,
			fn:      es[0].in.Fn,
		}
		for k, e := range es {
			p.m2[k] = e.in.M2
		}
		plans = append(plans, p)
	}
	if len(plans) == 0 {
		return batch, nil
	}
	scalar = batch[:0] // safe: keeps surviving entries in order
	for _, e := range batch {
		if g := fc.groupOf[e.idx]; g < 0 || !wide[g] {
			scalar = append(scalar, e)
		}
	}
	return scalar, plans
}

// injectWideSources scans each wide plan's shared source row once per
// cluster and queues wide source tasks: one task per source node with a
// lane per member query. The PU still decodes every member instruction,
// but the status-table scan is charged once — the per-node status word
// holds all member planes, so one access reads every lane's frontier.
func (c *cluster) injectWideSources(m *Machine, plans []widePlan) {
	for pi := range plans {
		p := &plans[pi]
		K := len(p.entries)
		var ready timing.Time
		for _, e := range p.entries {
			if r := c.decode(m, e.bAt); r > ready {
				ready = r
			}
		}
		scanCost := m.cost.PECost(m.cost.StatusWordCycles * int64(c.store.Words()))
		scanEnd := c.muRun(ready, scanCost)
		valRows := make([][]float32, K)
		for k, e := range p.entries {
			valRows[k] = c.store.ValueRow(e.in.M1) // nil for binary rows
		}
		globals := c.store.Globals()
		fullMask := uint16(1)<<K - 1
		for w, word := range c.store.StatusRow(p.entries[0].in.M1) {
			if word == 0 {
				continue
			}
			base := w * semnet.HostWordBits
			if bits.OnesCount64(word) >= denseSweepBits {
				for b := 0; word != 0; b, word = b+1, word>>1 {
					if word&1 != 0 {
						c.pushWideSource(int16(pi), p, base+b, valRows, globals, scanEnd, fullMask)
					}
				}
			} else {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					word &^= 1 << uint(b)
					c.pushWideSource(int16(pi), p, base+b, valRows, globals, scanEnd, fullMask)
				}
			}
		}
	}
}

func (c *cluster) pushWideSource(pi int16, p *widePlan, local int, valRows [][]float32, globals []semnet.NodeID, ready timing.Time, mask uint16) {
	off := int32(len(c.wideVals))
	for k := range p.entries {
		var v float32
		if valRows[k] != nil {
			v = valRows[k][local]
		}
		c.wideVals = append(c.wideVals, laneVal{value: v, origin: globals[local]})
	}
	c.pushSourceTask(task{
		local:    int32(local),
		rule:     p.rule,
		fn:       p.fn,
		ready:    ready,
		isSource: true,
		mask:     mask,
		wideGrp:  pi,
		wideIdx:  off,
	})
	c.stats.sources += int64(len(p.entries))
}

// expandWide is expand for a wide task: per-lane visit bookkeeping and
// store updates (bit-identical per lane to the scalar run), one shared
// relation-table walk, and the marker-unit cost of ONE scalar task —
// the status word and the per-plane marker units process every lane in
// the same access. It returns the shared children, the surviving lane
// mask (a lane whose delivery did not improve drops out), and the cost.
func (c *cluster) expandWide(m *Machine, t task) (children []childSpec, mask uint16, cost timing.Time) {
	children = c.childScratch[:0]
	p := &m.widePlans[t.wideGrp]
	K := len(p.entries)
	cm := &m.cost
	cycles := cm.TaskSwitchCycles
	rule := m.curRules.Rule(t.rule)
	mask = t.mask

	// Copy the lane block out of the arena: child appends below may
	// grow (reallocate) the arena, and the parent block is consumed by
	// this expansion anyway.
	var laneBuf [maxWideLanes]laneVal
	lanes := laneBuf[:K]
	copy(lanes, c.wideVals[t.wideIdx:int(t.wideIdx)+K])

	if !t.isSource {
		cycles += cm.StatusWordCycles // one RMW covers all lanes' planes
		var live uint16
		for k := 0; k < K; k++ {
			if mask&(1<<k) == 0 {
				continue
			}
			lv := &lanes[k]
			mk := p.m2[k]
			keep := true
			value := lv.value
			slot := c.visited.slot(packVisitKey(mk, t.rule, t.state), int(t.local))
			if slot.epoch == c.visited.epoch {
				merged := t.fn.Merge(slot.val, lv.value)
				if merged == slot.val {
					keep = false
				} else {
					slot.val = merged
					value = merged
				}
			} else {
				slot.epoch = c.visited.epoch
				slot.val = lv.value
			}

			newly := c.store.Set(int(t.local), mk)
			if mk.IsComplex() {
				if newly {
					c.store.SetValue(int(t.local), mk, value, lv.origin)
				} else {
					old := c.store.Value(int(t.local), mk)
					merged := t.fn.Merge(old, value)
					if merged != old {
						c.store.SetValue(int(t.local), mk, merged, lv.origin)
					} else if value == old && c.store.Origin(int(t.local), mk) != lv.origin {
						m.fusedCtx.amb.Store(true)
					}
				}
			}
			if keep {
				lv.value = value
				live |= 1 << k
			}
		}
		mask = live
	}

	if mask != 0 && int(t.level) >= m.cfg.MaxDepth {
		c.stats.dropDepth += int64(bits.OnesCount16(mask))
		mask = 0
	}
	if mask != 0 && rule != nil && !rule.Terminal(t.state) {
		links := c.store.Links(int(t.local))
		cycles += cm.RelSlotCycles * int64(len(links))
		for _, l := range links {
			if l.Rel == semnet.RelCont {
				off := int32(len(c.wideVals))
				c.wideVals = append(c.wideVals, lanes...)
				children = append(children, childSpec{to: l.To, state: t.state, level: t.level, wideOff: off})
				cycles += cm.ContHopCycles
				continue
			}
			next, follow := rule.Next(t.state, l.Rel)
			if !follow {
				continue
			}
			off := int32(len(c.wideVals))
			for k := 0; k < K; k++ {
				c.wideVals = append(c.wideVals, laneVal{
					value:  t.fn.Apply(lanes[k].value, l.Weight),
					origin: lanes[k].origin,
				})
			}
			children = append(children, childSpec{to: l.To, state: next, level: t.level + 1, wideOff: off})
			cycles += cm.PropUpdateCycles
		}
		c.stats.steps += int64(len(children))
	}
	c.childScratch = children
	return children, mask, cm.PECost(cycles)
}

// lockstepWideTask processes one wide task on the lockstep engine:
// local children push as wide tasks; a remote child crosses the ICN as
// ONE multi-plane activation (its lane block copied into the receiving
// cluster's arena) with a single send/hop/message charge. Wide runs
// never have a fault injector armed — planWide gates on that — so no
// fault decisions are drawn here.
func (m *Machine) lockstepWideTask(c *cluster, t task, perLevel *[]int64, total *int64) {
	children, mask, cost := c.expandWide(m, t)
	end := c.muRun(t.ready, cost)
	if mask == 0 || len(children) == 0 {
		return
	}
	K := len(m.widePlans[t.wideGrp].entries)
	asm := m.cost.PECost(m.cost.MsgAssembleCycles)
	prevNext := -1
	for _, ch := range children {
		dest := m.assign[ch.to]
		if dest == c.id {
			c.pushTask(task{
				local:   m.localIdx[ch.to],
				rule:    t.rule,
				state:   ch.state,
				fn:      t.fn,
				level:   ch.level,
				ready:   end,
				mask:    mask,
				wideGrp: t.wideGrp,
				wideIdx: ch.wideOff,
			})
			continue
		}
		cuCycles := m.cost.MsgAssembleCycles + m.cost.MailboxEnqueueCycles + m.cost.ArbiterGrantCycles
		sendEnd := c.cuRun(end, m.cost.PECost(cuCycles))
		hops := m.net.Hops(c.id, dest)
		transit := timing.Time(hops)*m.cost.HopLatency + timing.Time(hops-1)*asm
		dc := m.clusters[dest]

		c.stats.sends++
		c.destSends[dest]++
		c.stats.hops += int64(hops)
		if next := m.net.NextHop(c.id, dest); next != prevNext {
			c.stats.bursts++
			prevNext = next
		}
		c.stats.comm += m.cost.PECost(cuCycles) + transit + asm
		*total++
		for len(*perLevel) <= int(ch.level) {
			*perLevel = append(*perLevel, 0)
		}
		(*perLevel)[ch.level]++

		off := int32(len(dc.wideVals))
		dc.wideVals = append(dc.wideVals, c.wideVals[ch.wideOff:int(ch.wideOff)+K]...)
		ready := dc.cuRun(sendEnd+transit, asm)
		dc.pushTask(task{
			local:   m.localIdx[ch.to],
			rule:    t.rule,
			state:   ch.state,
			fn:      t.fn,
			level:   ch.level,
			ready:   ready,
			mask:    mask,
			wideGrp: t.wideGrp,
			wideIdx: off,
		})
	}
}

// Demux splits a fused run's result into per-query results. Every
// member reports the fused run's end time and shares its profile: the
// batch was one physical machine run, and attributing fractions of it
// below run granularity would fabricate precision the hardware model
// doesn't have. Collections are re-indexed onto each query's own
// instruction stream, so Collected(i) means the same thing it does on
// a solo result.
func (r *Result) Demux(f *isa.Fused) []*Result {
	out := make([]*Result, f.Queries)
	for q := range out {
		out[q] = &Result{Time: r.Time, Profile: r.Profile, Fused: true, KBGen: r.KBGen, kb: r.kb}
	}
	for _, col := range r.Collections {
		o := f.InstrOf(col.Instr)
		out[o.Query].Collections = append(out[o.Query].Collections, Collection{
			Instr: o.Index, Op: col.Op, Items: col.Items,
		})
	}
	return out
}
