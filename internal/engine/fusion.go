package engine

import (
	"snap1/internal/isa"
	"snap1/internal/semnet"
)

// The planner of marker-plane query fusion: which requests of a serving
// round run as ONE fused machine program — each query's markers renamed
// onto disjoint rows of the 128-row status slab — so the array bring-up
// (clear, broadcast, topology sweep) is paid once instead of per query.
// runGroup executes the plan and falls back to solo runs of the same
// requests when it cannot, so fusion can only add throughput, never
// answers.

// fusionGroup pops the head of the round and, when fusion is enabled
// and the head is fusable, pulls every compatible query from the rest
// of the round into its group: fusable programs admitted under the
// same KB generation whose combined marker demand still fits the
// status slab's 64 complex and 64 binary rows, up to cfg.Fusion
// members. Incompatible requests keep their relative order for the
// next iteration. Rejection reasons are counted in Stats.
func (e *Engine) fusionGroup(batch *[]*request) []*request {
	b := *batch
	first, rest := b[0], b[1:]
	*batch = rest
	if e.cfg.Fusion <= 1 || len(rest) == 0 {
		return b[:1:1]
	}
	if ok, reason := isa.Fusable(first.runProg()); !ok {
		e.st.fusionReject(reason)
		return b[:1:1]
	}
	group := []*request{first}
	// Fusion plans over the optimizer's rewrites (request.runProg): the
	// renaming pass packs each member's webs onto fewer planes, so an
	// optimized group fits more queries into the status slab's rows.
	cpx, bin := isa.PlaneDemand(first.runProg())
	keep := rest[:0]
	for _, req := range rest {
		if len(group) >= e.cfg.Fusion {
			keep = append(keep, req)
			continue
		}
		if req.gen != first.gen {
			e.st.fusionReject("generation")
			keep = append(keep, req)
			continue
		}
		if ok, reason := isa.Fusable(req.runProg()); !ok {
			e.st.fusionReject(reason)
			keep = append(keep, req)
			continue
		}
		cq, bq := isa.PlaneDemand(req.runProg())
		if cpx+cq > semnet.NumComplexMarkers || bin+bq > semnet.NumBinaryMarkers {
			e.st.fusionReject(isa.FuseReasonPlanes)
			keep = append(keep, req)
			continue
		}
		cpx, bin = cpx+cq, bin+bq
		group = append(group, req)
	}
	*batch = keep
	return group
}
