package engine

import (
	"context"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

// Marker-plane query fusion: a serving round that drained several
// mutually independent read-only queries coalesces them into ONE fused
// machine program — each query's markers renamed onto disjoint rows of
// the 128-row status slab — and executes them in a single run, paying
// the array bring-up (clear, broadcast, topology sweep) once instead of
// per query. The fused result is demultiplexed back into per-query
// results that are bit-identical, collections included, to what each
// query would have produced running alone; only the reported virtual
// time differs (every member reports the fused run's end).
//
// Fusion is transparent to callers of Submit: it engages whenever a
// replica's round happens to carry compatible queries. SubmitBatch
// (below) stacks the odds by admitting a caller's batch contiguously
// onto the run queue. Any failure to fuse — ineligible program, plane
// exhaustion, rule-table overflow, or a runtime origin-ambiguity
// detection — falls back to solo execution of the same requests, so
// fusion can only add throughput, never answers.

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

// SubmitBatch submits a set of independent read-only programs in one
// call, enqueuing every cache-missing member contiguously so a replica
// that takes them in one round can fuse them into a single machine run
// (a lone free replica takes the batch whole; several split it). Results
// and errors are positional: errs[i] is non-nil exactly when results[i]
// is nil. Per-element
// admission matches Submit (validation, mutating-program rejection,
// result-cache hits); unlike Submit, members that execute are not
// retried and their results are not memoized (a fused result's virtual
// time is not solo-reproducible).
func (e *Engine) SubmitBatch(ctx context.Context, progs []*isa.Program) ([]*machine.Result, []error) {
	results := make([]*machine.Result, len(progs))
	errs := make([]error, len(progs))
	if e.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, e.cfg.QueryTimeout, errAttemptTimeout)
		defer cancel()
	}

	gen := e.readGen()
	pending := make([]int, 0, len(progs)) // pending[j]: reqs[j]'s index in progs
	reqs := make([]*request, 0, len(progs))
	for i, prog := range progs {
		if _, results[i], errs[i] = e.precheck(prog, gen); results[i] == nil && errs[i] == nil {
			// Optimization is compile-tier work: it runs (once per
			// compiled program) before admission, so it never occupies a
			// queue or in-flight slot.
			pending = append(pending, i)
			reqs = append(reqs, newRequest(ctx, prog, e.optimize(prog), gen))
		}
	}
	if len(reqs) == 0 {
		return results, errs
	}
	if err := e.enqueue(reqs); err != nil {
		for _, i := range pending {
			errs[i] = err
		}
		return results, errs
	}
	defer e.inflight.Add(-int64(len(reqs)))

	for j, i := range pending {
		select {
		case r := <-reqs[j].resp:
			results[i], errs[i] = r.res, r.err
		case <-ctx.Done():
			errs[i] = ctx.Err() // counted by the replica that pops it
		case <-e.done:
			errs[i] = ErrClosed
		}
	}
	return results, errs
}
