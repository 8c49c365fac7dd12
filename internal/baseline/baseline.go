// Package baseline implements the comparison system of the paper's
// evaluation: a CM-2-style SIMD machine model for the Fig. 15 inheritance
// comparison.
//
// The CM-2 disadvantage the paper identifies is structural, not raw speed:
// a SIMD machine "had to iterate between the controller and array after
// each propagation step on the critical path", paying a fixed front-end
// round trip per step and sweeping the whole array regardless of how few
// nodes are active, while SNAP-1's MIMD marker units propagate selectively
// under local control. The model reproduces exactly that cost structure.
package baseline

import (
	"fmt"

	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// CM2 models a Connection Machine-style SIMD array running a
// marker-propagation step loop.
type CM2 struct {
	// Procs is the array width (the CM-2 of [2] has 16K single-bit PEs).
	Procs int
	// StepOverhead is the front-end/controller round trip paid on every
	// propagation step of the critical path.
	StepOverhead timing.Time
	// PerNode is the per-node cost of one full-array sweep step
	// (virtual processors fold N/Procs nodes onto each PE).
	PerNode timing.Time
	// PerActive is the per-active-node marker update cost within a step.
	PerActive timing.Time
}

// DefaultCM2 is calibrated so the Fig. 15 relationship holds against this
// repository's SNAP-1 cost model: roughly an order of magnitude slower
// than SNAP-1 at a 6.4K-node knowledge base, with a much flatter slope
// (per-step fixed overhead × logarithmic depth), so the curves cross only
// beyond the prototype's 32K-node capacity — the paper's "the lines will
// cross when larger knowledge bases are used".
func DefaultCM2() CM2 {
	return CM2{
		Procs:        16384,
		StepOverhead: 4 * timing.Millisecond,
		PerNode:      600 * timing.Nanosecond,
		PerActive:    250 * timing.Nanosecond,
	}
}

// InheritResult reports one CM-2 model run.
type InheritResult struct {
	Time    timing.Time
	Steps   int // propagation steps = controller round trips
	Reached int // nodes that received the marker
}

// Inherit runs root-to-leaf inheritance along rel: a level-synchronous
// BFS where every level costs one controller round trip plus a full-array
// sweep. The functional result (the reached set) matches SNAP-1's, so the
// two systems are verified against each other.
func (c CM2) Inherit(kb *semnet.KB, root semnet.NodeID, rel semnet.RelType) (*InheritResult, error) {
	n := kb.NumNodes()
	if int(root) >= n {
		return nil, fmt.Errorf("baseline: root %d not in knowledge base", root)
	}
	visited := make([]bool, n)
	frontier := []semnet.NodeID{root}
	visited[root] = true
	var t timing.Time
	steps, reached := 0, 0
	for len(frontier) > 0 {
		// One SIMD step: front-end round trip, then every physical PE
		// sweeps its fold of vp = ceil(N/Procs) virtual nodes in
		// lockstep, then the active nodes pay the marker update.
		vp := (n + c.Procs - 1) / c.Procs
		t += c.StepOverhead + timing.Time(vp)*c.PerNode
		t += timing.Time(len(frontier)) * c.PerActive
		var next []semnet.NodeID
		for _, id := range frontier {
			if _, err := kb.Node(id); err != nil {
				return nil, err
			}
			for _, l := range kb.Links(id) {
				follow := l.Rel == rel || l.Rel == semnet.RelCont
				if follow && !visited[l.To] {
					visited[l.To] = true
					next = append(next, l.To)
				}
			}
		}
		reached += len(next)
		frontier = next
		steps++
	}
	return &InheritResult{Time: t, Steps: steps, Reached: reached}, nil
}
