package machine

import (
	"fmt"
	"math/bits"

	"snap1/internal/isa"
	"snap1/internal/perfmon"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// exec runs one non-PROPAGATE instruction. Search, boolean, set/clear and
// marker-maintenance instructions execute data-parallel across the array
// (SIMD phase): the ones that are whole-plane status operations are one
// semnet.Table sweep and sixteen clock bookings (execSweep), the ones
// that walk per-node columns visit each cluster's store (execScan). Node
// maintenance touches the owning cluster; retrieval runs on the
// controller against each cluster's dual-port memory.
func (m *Machine) exec(st *runState, idx int, in *isa.Instruction, bAt timing.Time) error {
	var end timing.Time // exclusive execution time of this instruction
	var err error
	switch in.Op {
	case isa.OpSearchNode:
		end, err = m.execSearchNode(in, bAt)
	case isa.OpSearchRelation:
		end = m.execScan(bAt, func(c *cluster) int64 {
			var extra int64
			for local := 0; local < c.store.NumNodes(); local++ {
				links := c.store.Links(local)
				extra += m.cost.RelSlotCycles * int64(len(links))
				for _, l := range links {
					if l.Rel == in.Rel {
						c.markSearch(local, in)
						break
					}
				}
			}
			return extra
		})
	case isa.OpSearchColor:
		end = m.execScan(bAt, func(c *cluster) int64 {
			c.store.SearchColor(in.Color, in.M1, in.Value)
			return m.cost.NodeTestCycles * int64(c.store.NumNodes())
		})
	case isa.OpSetMarker:
		m.tab.SetAll(in.M1, in.Value)
		end = m.execSweep(bAt)
	case isa.OpClearMarker:
		m.tab.ClearAll(in.M1)
		end = m.execSweep(bAt)
	case isa.OpFuncMarker:
		end = m.execScan(bAt, func(c *cluster) int64 {
			words := c.store.FuncAll(in.M1, in.Fn, in.Value)
			return m.cost.StatusWordCycles * int64(words)
		})
	case isa.OpAndMarker:
		m.tab.And(in.M1, in.M2, in.M3, in.Fn)
		end = m.execSweep(bAt)
	case isa.OpOrMarker:
		m.tab.Or(in.M1, in.M2, in.M3, in.Fn)
		end = m.execSweep(bAt)
	case isa.OpNotMarker:
		if in.Cond == isa.CondNone {
			m.tab.Not(in.M1, in.M2)
			end = m.execSweep(bAt)
			break
		}
		// Value-conditional complement: m2 is set where m1 is clear or
		// where m1's value fails the condition; every node is tested.
		pass := func(v float32) bool { return in.Cond.Eval(v, in.Value) }
		end = m.execScan(bAt, func(c *cluster) int64 {
			words := c.store.NotWhere(in.M1, in.M2, pass)
			return m.cost.StatusWordCycles*int64(words) + m.cost.NodeTestCycles*int64(c.store.NumNodes())
		})
	case isa.OpMarkerSetColor:
		end = m.execScan(bAt, func(c *cluster) int64 {
			var n int64
			words := c.store.ForEachSet(in.M1, func(local int) {
				_ = c.store.SetColor(local, in.Color)
				_ = m.kb.SetColor(c.store.Global(local), in.Color)
				n++
			})
			return m.cost.StatusWordCycles*int64(words) + m.cost.NodeTestCycles*n
		})
	case isa.OpCreate:
		end, err = m.execCreate(in, bAt)
	case isa.OpDelete:
		end, err = m.execDelete(in, bAt)
	case isa.OpSetColor:
		end, err = m.execSetColor(in, bAt)
	case isa.OpMarkerCreate, isa.OpMarkerDelete:
		end, err = m.execMarkerLinks(in, bAt)
	case isa.OpCollectNode, isa.OpCollectRelation, isa.OpCollectColor:
		end, err = m.execCollect(st, idx, in, bAt)
	case isa.OpCommEnd:
		// The overlap window was already flushed; only the controller's
		// barrier sampling cost remains.
		m.ctrl.Tick(m.cost.BarrierBaseCycles)
		st.prof.Overhead.Synchronization += m.cost.CtrlCost(m.cost.BarrierBaseCycles)
		end = m.cost.CtrlCost(m.cost.BarrierBaseCycles)
	default:
		return fmt.Errorf("machine: opcode %s not executable here", in.Op)
	}
	if err != nil {
		return err
	}
	st.prof.Record(in.Op, end)
	return nil
}

// markSearch activates a search hit: marker set with the search value.
func (c *cluster) markSearch(local int, in *isa.Instruction) {
	c.store.Set(local, in.M1)
	c.store.SetValue(local, in.M1, in.Value, c.store.Global(local))
}

// execScan runs a data-parallel sweep on every cluster: PU decode followed
// by one marker-unit pass whose extra cycle cost the callback reports.
// It returns the instruction's exclusive execution time — the slowest
// cluster's decode-plus-sweep cost, excluding any wait for earlier work
// still occupying the marker units (profiles attribute exclusive time, as
// the paper's instrumentation does).
func (m *Machine) execScan(bAt timing.Time, f func(c *cluster) int64) timing.Time {
	var excl timing.Time
	decode := m.cost.PECost(m.cost.DecodeCycles + m.cost.EnqueueCycles)
	for _, c := range m.clusters {
		ready := c.decode(m, bAt)
		cycles := f(c)
		c.muRun(ready, m.cost.PECost(cycles))
		excl = timing.Max(excl, decode+m.cost.PECost(cycles))
	}
	return excl
}

// execSweep books an instruction the status table has already executed
// as one whole-plane sweep: every cluster decodes it and spends one
// marker-unit pass over its own status words, in cluster order — the
// charges execScan would book for a callback costing StatusWordCycles a
// word.
func (m *Machine) execSweep(bAt timing.Time) timing.Time {
	var excl timing.Time
	decode := m.cost.PECost(m.cost.DecodeCycles + m.cost.EnqueueCycles)
	for _, c := range m.clusters {
		sweep := m.cost.PECost(m.cost.StatusWordCycles * int64(c.store.Words()))
		c.muRun(c.decode(m, bAt), sweep)
		excl = timing.Max(excl, decode+sweep)
	}
	return excl
}

func (m *Machine) execSearchNode(in *isa.Instruction, bAt timing.Time) (timing.Time, error) {
	if int(in.Node) >= len(m.assign) {
		return 0, fmt.Errorf("node %d not in knowledge base", in.Node)
	}
	owner := m.clusters[m.assign[in.Node]]
	owner.markSearch(int(m.localIdx[in.Node]), in)
	test := m.cost.PECost(m.cost.NodeTestCycles + m.cost.StatusWordCycles)
	for _, c := range m.clusters {
		var cost timing.Time
		if c == owner {
			cost = test
		}
		c.muRun(c.decode(m, bAt), cost)
	}
	return m.cost.PECost(m.cost.DecodeCycles+m.cost.EnqueueCycles) + test, nil
}

func (m *Machine) execCreate(in *isa.Instruction, bAt timing.Time) (timing.Time, error) {
	if int(in.Node) >= len(m.assign) || int(in.EndNode) >= len(m.assign) {
		return 0, fmt.Errorf("link %d->%d references missing node", in.Node, in.EndNode)
	}
	c := m.clusters[m.assign[in.Node]]
	l := semnet.Link{Rel: in.Rel, Weight: in.Weight, To: in.EndNode}
	if err := c.store.AddLink(int(m.localIdx[in.Node]), l); err != nil {
		return 0, err
	}
	if err := m.kb.AddLink(in.Node, in.Rel, in.Weight, in.EndNode); err != nil {
		return 0, err
	}
	ready := c.decode(m, bAt)
	cycles := m.cost.RelSlotCycles + m.cost.NodeTestCycles
	c.muRun(ready, m.cost.PECost(cycles))
	return m.cost.PECost(m.cost.DecodeCycles + m.cost.EnqueueCycles + cycles), nil
}

func (m *Machine) execDelete(in *isa.Instruction, bAt timing.Time) (timing.Time, error) {
	if int(in.Node) >= len(m.assign) {
		return 0, fmt.Errorf("node %d not in knowledge base", in.Node)
	}
	c := m.clusters[m.assign[in.Node]]
	if c.store.RemoveLink(int(m.localIdx[in.Node]), in.Rel, in.EndNode) {
		m.kb.RemoveLink(in.Node, in.Rel, in.EndNode)
	}
	ready := c.decode(m, bAt)
	cycles := m.cost.RelSlotCycles * semnet.RelationSlots
	c.muRun(ready, m.cost.PECost(cycles))
	return m.cost.PECost(m.cost.DecodeCycles + m.cost.EnqueueCycles + cycles), nil
}

func (m *Machine) execSetColor(in *isa.Instruction, bAt timing.Time) (timing.Time, error) {
	if int(in.Node) >= len(m.assign) {
		return 0, fmt.Errorf("node %d not in knowledge base", in.Node)
	}
	c := m.clusters[m.assign[in.Node]]
	if err := c.store.SetColor(int(m.localIdx[in.Node]), in.Color); err != nil {
		return 0, err
	}
	_ = m.kb.SetColor(in.Node, in.Color)
	ready := c.decode(m, bAt)
	c.muRun(ready, m.cost.PECost(m.cost.NodeTestCycles))
	return m.cost.PECost(m.cost.DecodeCycles + m.cost.EnqueueCycles + m.cost.NodeTestCycles), nil
}

// execMarkerLinks implements MARKER-CREATE and MARKER-DELETE: every node
// holding the marker gains (or loses) a forward link to the end node and,
// optionally, a reverse link from it.
func (m *Machine) execMarkerLinks(in *isa.Instruction, bAt timing.Time) (timing.Time, error) {
	if int(in.EndNode) >= len(m.assign) {
		return 0, fmt.Errorf("end node %d not in knowledge base", in.EndNode)
	}
	create := in.Op == isa.OpMarkerCreate
	endCluster := m.clusters[m.assign[in.EndNode]]
	var excl timing.Time
	var firstErr error
	for _, c := range m.clusters {
		ready := c.decode(m, bAt)
		var n int64
		words := c.store.ForEachSet(in.M1, func(local int) {
			if firstErr != nil {
				return
			}
			n++
			node := c.store.Global(local)
			if create {
				if err := c.store.AddLink(local, semnet.Link{Rel: in.Rel, Weight: 0, To: in.EndNode}); err != nil {
					firstErr = err
					return
				}
				m.kb.MustAddLink(node, in.Rel, 0, in.EndNode)
				if in.HasRev {
					if err := endCluster.store.AddLink(int(m.localIdx[in.EndNode]), semnet.Link{Rel: in.RevRel, Weight: 0, To: node}); err != nil {
						firstErr = err
						return
					}
					m.kb.MustAddLink(in.EndNode, in.RevRel, 0, node)
				}
			} else {
				if c.store.RemoveLink(local, in.Rel, in.EndNode) {
					m.kb.RemoveLink(node, in.Rel, in.EndNode)
				}
				if in.HasRev {
					if endCluster.store.RemoveLink(int(m.localIdx[in.EndNode]), in.RevRel, node) {
						m.kb.RemoveLink(in.EndNode, in.RevRel, node)
					}
				}
			}
		})
		cycles := m.cost.StatusWordCycles*int64(words) + 2*m.cost.RelSlotCycles*n
		c.muRun(ready, m.cost.PECost(cycles))
		excl = timing.Max(excl, m.cost.PECost(m.cost.DecodeCycles+m.cost.EnqueueCycles+cycles))
	}
	return excl, firstErr
}

// execCollect implements the retrieval group: the controller switches to
// each cluster's dual-port memory in turn and pulls the matching rows —
// the cost component that grows proportionally to cluster count (Fig. 21).
//
// The host does not merge per-cluster row lists. The collected marker's
// plane is projected onto one bitmap indexed by global node ID
// (semnet.Table.Project), and that bitmap is walked ascending, so rows
// come out in the (Node, To) order of the retrieval contract by
// construction. The controller is charged what the per-cluster transfer
// costs — setup, then CollectNodeCycles per row, cluster by cluster —
// whatever order the host gathered the rows in.
func (m *Machine) execCollect(st *runState, idx int, in *isa.Instruction, bAt timing.Time) (timing.Time, error) {
	// The controller must see completed array state.
	m.ctrl.Sync(bAt)
	for _, c := range m.clusters {
		m.ctrl.Sync(c.last)
	}
	startCtrl := m.ctrl.Now()

	if need := (len(m.assign) + semnet.HostWordBits - 1) / semnet.HostWordBits; len(m.collectBits) < need {
		m.collectBits = make([]uint64, need)
	}
	if len(m.collectRows) < len(m.clusters) {
		m.collectRows = make([]int64, len(m.clusters))
	}
	marked, rows := m.collectBits, m.collectRows[:len(m.clusters)]
	clear(rows)
	total := m.tab.Project(in.M1, marked)

	items := make([]Item, 0, total)
	for w, word := range marked {
		marked[w] = 0 // leave the scratch clear for the next collect
		for base := w * semnet.HostWordBits; word != 0; word &= word - 1 {
			id := base + bits.TrailingZeros64(word)
			ci := m.assign[id]
			s, local := m.clusters[ci].store, int(m.localIdx[id])
			first := len(items)
			switch in.Op {
			case isa.OpCollectNode:
				items = append(items, Item{
					Node:   semnet.NodeID(id),
					Value:  s.Value(local, in.M1),
					Origin: s.Origin(local, in.M1),
					Color:  s.Color(local),
				})
			case isa.OpCollectColor:
				items = append(items, Item{Node: semnet.NodeID(id), Color: s.Color(local)})
			case isa.OpCollectRelation:
				for _, l := range s.Links(local) {
					if l.Rel != in.Rel {
						continue
					}
					// Insertion sort by To within the node, equal To in link
					// order: a node has at most RelationSlots links, and
					// nothing moves unless the network or a mutation listed
					// them out of To order.
					j := len(items)
					items = append(items, Item{})
					for ; j > first && items[j-1].To > l.To; j-- {
						items[j] = items[j-1]
					}
					items[j] = Item{Node: semnet.NodeID(id), Rel: l.Rel, Weight: l.Weight, To: l.To}
				}
			}
			rows[ci] += int64(len(items) - first)
		}
	}
	if len(items) == 0 {
		items = nil // no rows is a nil Items, as it is for a collect never run
	}
	for _, n := range rows {
		m.ctrl.Tick(m.cost.CollectSetupPerCluster)
		m.ctrl.Tick(m.cost.CollectNodeCycles * n)
	}

	st.res.Collections = append(st.res.Collections, Collection{Instr: idx, Op: in.Op, Items: items})
	st.prof.CollectedNodes += int64(len(items))
	end := m.ctrl.Now()
	st.prof.Overhead.Collection += end - startCtrl
	if mon := m.cfg.Monitor; mon != nil {
		mon.Emit(-1, perfmon.EvCollect, uint32(len(items)), end)
	}
	return end - startCtrl, nil
}
