package machine

import (
	"math/bits"
	"runtime"
	"sync"

	"snap1/internal/barrier"
	"snap1/internal/icn"
	"snap1/internal/isa"
	"snap1/internal/perfmon"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// interMsg is the inter-cluster marker activation message.
type interMsg = icn.Message

// flush launches the pending overlap window of PROPAGATE instructions as
// one MIMD phase, runs it to termination, and accounts the barrier.
func (m *Machine) flush(st *runState) {
	if len(st.batch) == 0 {
		return
	}
	firstBAt := st.batch[0].bAt
	var bstats barrier.Stats
	if m.cfg.Deterministic {
		bstats = m.runPhaseLockstep(st.batch)
	} else {
		bstats = m.runPhaseConcurrent(st.batch)
	}

	// Gather the clusters' phase statistics. The phase ends at the latest
	// completion in the array; the cluster that set it is the critical
	// one, and how busy its marker units were over the phase says whether
	// it was short of work spread (busy) or of locality (waiting).
	var agg phaseStats
	var end timing.Time
	crit := m.clusters[0]
	for _, c := range m.clusters {
		agg.add(&c.stats)
		if c.last > end {
			end, crit = c.last, c
		}
	}
	st.prof.CriticalBusy += crit.muBusyPerMU(crit.load.muBusy - crit.load.phaseMU)
	st.prof.CriticalSpan += end - firstBAt

	// Tiered synchronization: the SCP samples the AND-tree and reconciles
	// the per-level counter sums — cost grows (weakly) with cluster count
	// and tier depth, the Fig. 21 barrier component.
	syncCycles := m.cost.BarrierBaseCycles +
		m.cost.BarrierPerClusterCycles*int64(m.cfg.Clusters) +
		m.cost.BarrierPerLevelCycles*int64(bstats.Levels)
	m.ctrl.Sync(end)
	m.ctrl.Tick(syncCycles)

	st.prof.Overhead.Synchronization += m.cost.CtrlCost(syncCycles)
	st.prof.Overhead.Communication += agg.comm
	st.prof.AddBarrier(bstats)
	st.prof.PropSteps += agg.steps
	st.prof.PropInstrs += int64(len(st.batch))

	// Interconnect locality counters. The lockstep engine accounts hops
	// per message as it routes; the concurrent engine reads the live
	// network's port-transfer counter (the phase has terminated, so the
	// delta since the previous flush is exactly this phase's traffic).
	phaseHops := agg.hops
	if !m.cfg.Deterministic {
		_, _, total := m.net.Stats()
		phaseHops = total - m.hopBase
		m.hopBase = total
	}
	st.prof.PropHops += phaseHops
	st.prof.SendBursts += agg.bursts

	// Attribute the phase duration across the overlapped PROPAGATEs.
	dur := m.ctrl.Now() - firstBAt
	st.prof.PhaseDurations = append(st.prof.PhaseDurations, dur)
	st.prof.PhaseBetas = append(st.prof.PhaseBetas, len(st.batch))
	share := timing.Time(int64(dur) / int64(len(st.batch)))
	for range st.batch {
		st.prof.Record(isa.OpPropagate, share)
	}
	if mon := m.cfg.Monitor; mon != nil {
		mon.Emit(-1, perfmon.EvBarrierDone, uint32(bstats.Messages), m.ctrl.Now())
		mon.Emit(-1, perfmon.EvCutTraffic, uint32(agg.sends), m.ctrl.Now())
		mon.Emit(-1, perfmon.EvHopTraffic, uint32(phaseHops), m.ctrl.Now())
	}

	st.batch = st.batch[:0]
	st.win.Reset()
}

// ---------------------------------------------------------------------
// Concurrent engine: one goroutine per cluster per phase, real mailboxes,
// live termination detection.
// ---------------------------------------------------------------------

func (m *Machine) runPhaseConcurrent(entries []batchEntry) barrier.Stats {
	m.bar.Reset()
	var wg sync.WaitGroup
	for _, c := range m.clusters {
		c.resetPhase()
		wg.Add(1)
		go c.phaseLoop(m, entries, &wg)
	}
	bstats := m.bar.WaitGlobal()
	// Every cluster has seen the barrier fire and returns; after the wait
	// its clocks and statistics are the controller's to read.
	wg.Wait()
	return bstats
}

func (s *phaseStats) add(o *phaseStats) {
	s.steps += o.steps
	s.sends += o.sends
	s.bursts += o.bursts
	s.hops += o.hops
	s.sources += o.sources
	s.dropDepth += o.dropDepth
	s.comm += o.comm
}

// phaseLoop is one cluster's MIMD propagation loop: drain the mailbox,
// relay transit messages, process local tasks, and participate in the
// tiered termination-detection protocol when quiescent. It is the body of
// the cluster's goroutine for the phase, and tells done when it returns.
func (c *cluster) phaseLoop(m *Machine, entries []batchEntry, done *sync.WaitGroup) {
	defer done.Done()
	c.injectSources(m, entries)
	for {
		for msg, ok := m.net.TryRecv(c.id); ok; msg, ok = m.net.TryRecv(c.id) {
			c.acceptMsg(m, msg)
		}
		if c.relayHead < len(c.relayQ) {
			tm := c.relayQ[c.relayHead]
			c.relayHead++
			c.relay(m, tm)
			continue
		}
		if t, ok := c.popTask(); ok {
			c.processTaskConcurrent(m, t)
			continue
		}
		// Quiescence candidacy: sample the wake sequence before the final
		// emptiness check so an arriving message cannot be lost.
		seq := m.bar.WakeSeq(c.id)
		if m.net.Pending(c.id) > 0 || c.pendingTasks() > 0 || c.relayHead < len(c.relayQ) {
			continue
		}
		if m.bar.WaitQuiescent(c.id, seq) {
			return
		}
	}
}

// denseSweepBits is the per-word popcount at which the source scan flips
// from iterating set bits to walking every lane of the word in order —
// the frontier-adaptive sweep. Near-full words (a SET-MARKER-seeded
// frontier, a saturated closure) stream the status row, register block
// and global-ID column sequentially instead of re-deriving each position
// from the mask.
const denseSweepBits = semnet.HostWordBits / 4

// injectSources scans marker-1 of every PROPAGATE in the overlap window
// over this cluster's partition and queues the source tasks. The scan
// walks the packed status row directly: sparse words iterate set bits
// with TrailingZeros, dense words switch to a sequential lane walk. Both
// visit locals in ascending order, so task seq numbers — and the
// simulated timeline — are identical whichever path runs.
func (c *cluster) injectSources(m *Machine, entries []batchEntry) {
	for _, e := range entries {
		in := e.in
		ready := c.decode(m, e.bAt)
		scanCost := m.cost.PECost(m.cost.StatusWordCycles * int64(c.store.Words()))
		scanEnd := c.muRun(ready, scanCost)
		globals := c.store.Globals()
		for w, word := range c.store.StatusRow(in.M1) {
			if word == 0 {
				continue
			}
			base := w * semnet.HostWordBits
			regs := c.store.Registers(in.M1, w) // nil for binary or never-written registers
			if bits.OnesCount64(word) >= denseSweepBits {
				for b := 0; word != 0; b, word = b+1, word>>1 {
					if word&1 != 0 {
						c.pushSource(in, base+b, regs.Value(b), globals, scanEnd)
					}
				}
			} else {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					word &^= 1 << uint(b)
					c.pushSource(in, base+b, regs.Value(b), globals, scanEnd)
				}
			}
		}
	}
}

// pushSource queues one PROPAGATE source task found by the status scan.
func (c *cluster) pushSource(in *isa.Instruction, local int, val float32, globals []semnet.NodeID, ready timing.Time) {
	c.pushTask(task{
		local:    int32(local),
		marker:   in.M2,
		rule:     in.Rule,
		fn:       in.Fn,
		value:    val,
		origin:   globals[local],
		ready:    ready,
		isSource: true,
	})
	c.stats.sources++
}

// acceptMsg disassembles an inbound message: transit messages queue for
// relay, terminal messages become local tasks.
func (c *cluster) acceptMsg(m *Machine, msg interMsg) {
	arrival := msg.SendTime + m.cost.HopLatency
	if int(msg.DestCluster) != c.id {
		c.relayQ = append(c.relayQ, transitMsg{msg: msg, arrival: arrival})
		return
	}
	asm := m.cost.PECost(m.cost.MsgAssembleCycles)
	end := c.cuRun(arrival, asm)
	c.stats.comm += m.cost.HopLatency + asm
	c.pushTask(task{
		local:   m.localIdx[msg.Dest],
		marker:  msg.Marker,
		rule:    msg.Rule,
		state:   msg.State,
		fn:      msg.Fn,
		value:   msg.Value,
		origin:  msg.Origin,
		level:   msg.Level,
		ready:   end,
		fromMsg: true,
	})
	if mon := m.cfg.Monitor; mon != nil {
		mon.Emit(c.id, perfmon.EvMsgRecv, uint32(msg.Level), end)
	}
}

// relay forwards a transit message one digit-correction closer to its
// destination cluster.
func (c *cluster) relay(m *Machine, tm transitMsg) {
	asm := m.cost.PECost(m.cost.MsgAssembleCycles)
	end := c.cuRun(tm.arrival, asm)
	c.stats.comm += m.cost.HopLatency + asm
	msg := tm.msg
	msg.SendTime = end
	c.xmit(m, m.net.TryForward, msg)
}

// xmit puts one message — a new injection (Network.TrySend) or a relay
// (Network.TryForward) — into its next hop's mailbox with backpressure:
// while that mailbox region is full, the cluster services its own mailbox
// so the array cannot deadlock on mutually full buffers.
func (c *cluster) xmit(m *Machine, put func(from int, msg interMsg) bool, msg interMsg) {
	for !put(c.id, msg) {
		if in, got := m.net.TryRecv(c.id); got {
			c.acceptMsg(m, in)
		} else {
			runtime.Gosched()
		}
	}
	m.bar.Wake(m.net.NextHop(c.id, int(msg.DestCluster)))
}

// processTaskConcurrent runs one task: expansion on a marker unit, local
// children into the task queue, remote children through the CU and ICN,
// each counted at the barrier before it becomes visible to a receiver
// (the protocol invariant) and injected before the next is built.
func (c *cluster) processTaskConcurrent(m *Machine, t task) {
	children, cost := c.expand(m, t)
	end := c.muRun(t.ready, cost)
	prevNext := -1 // burst accounting: a run of equal next hops
	for _, ch := range children {
		dest := m.assign[ch.to]
		if dest == c.id {
			c.pushTask(task{
				local:  m.localIdx[ch.to],
				marker: t.marker,
				rule:   t.rule,
				state:  ch.state,
				fn:     t.fn,
				value:  ch.value,
				origin: t.origin,
				level:  ch.level,
				ready:  end,
			})
			continue
		}
		// MU hands the activation to the CU through the arbitrated
		// marker activation memory, then the CU assembles and injects.
		c.sems.Lock(semActivation)
		c.sems.Unlock(semActivation)
		cuCycles := m.cost.MsgAssembleCycles + m.cost.MailboxEnqueueCycles + m.cost.ArbiterGrantCycles
		sendEnd := c.cuRun(end, m.cost.PECost(cuCycles))
		c.stats.sends++
		c.stats.comm += m.cost.PECost(cuCycles)
		if next := m.net.NextHop(c.id, dest); next != prevNext {
			c.stats.bursts++
			prevNext = next
		}
		if mon := m.cfg.Monitor; mon != nil {
			mon.Emit(c.id, perfmon.EvMsgSend, uint32(dest), sendEnd)
		}
		m.bar.Created(int(ch.level))
		c.xmit(m, m.net.TrySend, interMsg{
			Marker:      t.marker,
			Value:       ch.value,
			Fn:          t.fn,
			Dest:        ch.to,
			Origin:      t.origin,
			Rule:        t.rule,
			State:       ch.state,
			DestCluster: uint8(dest),
			Level:       ch.level,
			SendTime:    sendEnd,
		})
	}
	if t.fromMsg {
		m.bar.Consumed(int(t.level))
	}
}

// ---------------------------------------------------------------------
// Lockstep engine: the same task causality graph processed in canonical
// order for exactly reproducible measurements.
// ---------------------------------------------------------------------

func (m *Machine) runPhaseLockstep(entries []batchEntry) barrier.Stats {
	for _, c := range m.clusters {
		c.resetPhase()
	}
	for _, c := range m.clusters {
		c.injectSources(m, entries)
	}

	var perLevel []int64
	var total int64
	pending := true
	for pending {
		pending = false
		for _, c := range m.clusters {
			for {
				t, ok := c.popTask()
				if !ok {
					break
				}
				pending = true
				m.lockstepTask(c, t, &perLevel, &total)
			}
		}
	}

	return barrier.Stats{Messages: total, Levels: len(perLevel), PerLevel: perLevel}
}

// lockstepTask processes one task, delivering remote children immediately
// with deterministic per-hop relay accounting (a fixed disassemble/
// reassemble charge per intermediate hop instead of live CU contention).
func (m *Machine) lockstepTask(c *cluster, t task, perLevel *[]int64, total *int64) {
	children, cost := c.expand(m, t)
	end := c.muRun(t.ready, cost)
	asm := m.cost.PECost(m.cost.MsgAssembleCycles)
	send := m.cost.PECost(m.cost.MsgAssembleCycles + m.cost.MailboxEnqueueCycles + m.cost.ArbiterGrantCycles)
	prevNext := -1 // burst accounting, mirroring the concurrent engine
	for _, ch := range children {
		child := task{
			local:  m.localIdx[ch.to],
			marker: t.marker,
			rule:   t.rule,
			state:  ch.state,
			fn:     t.fn,
			value:  ch.value,
			origin: t.origin,
			level:  ch.level,
			ready:  end,
		}
		dest := m.assign[ch.to]
		if dest == c.id {
			c.pushTask(child)
			continue
		}
		sendEnd := c.cuRun(end, send)
		next, hops := m.net.Path(c.id, dest)
		transit := timing.Time(hops)*m.cost.HopLatency + timing.Time(hops-1)*asm
		dc := m.clusters[dest]

		// The lockstep engine bypasses the live ICN, so the per-message
		// fault decisions are drawn here: a drop means the message left
		// the sender and died in transit (copies=0), a duplicate is
		// delivered twice, a delay lengthens the transit. Any of these
		// poisons the run via RunContext's corruption check.
		copies := 1
		if inj := m.inj; inj != nil {
			if inj.DropICN() {
				copies = 0
			} else {
				if d, ok := inj.DelayICN(); ok {
					transit += timing.Time(d)
				}
				if inj.DupICN() {
					copies = 2
				}
			}
		}

		c.stats.sends++
		c.stats.hops += int64(hops)
		if next != prevNext {
			c.stats.bursts++
			prevNext = next
		}
		c.stats.comm += send + transit + asm
		*total++
		for len(*perLevel) <= int(ch.level) {
			*perLevel = append(*perLevel, 0)
		}
		(*perLevel)[ch.level]++

		for k := 0; k < copies; k++ {
			child.ready = dc.cuRun(sendEnd+transit, asm)
			dc.pushTask(child)
		}
	}
}
