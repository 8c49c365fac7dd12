package engine

import (
	"context"
	"errors"
	"time"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
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
// onto one shard. Any failure to fuse — ineligible program, plane
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

// runFused executes a fusion group as one machine run and answers every
// member from the demultiplexed result. It returns false — without
// having answered anyone — when the group must fall back to solo
// execution: fusion planning failed, the run errored, or the machine
// detected an origin-ambiguous marker tie (ErrFusionAmbiguous), whose
// per-query attribution only a solo run can pin down.
func (e *Engine) runFused(rank int, m *machine.Machine, group []*request) bool {
	live := make([]*request, 0, len(group))
	for _, req := range group {
		e.st.queueWait(time.Since(req.enqueued))
		if err := req.ctx.Err(); err != nil {
			e.st.cancel()
			e.emit(rank, perfmon.EvQueryCancel, uint32(e.queued.Load()), 0)
			req.resp <- response{err: err}
			continue
		}
		live = append(live, req)
	}
	if len(live) < 2 {
		for _, req := range live {
			e.runOne(rank, m, req)
		}
		return true
	}

	progs := make([]*isa.Program, len(live))
	for i, req := range live {
		progs[i] = req.runProg()
	}
	f, err := isa.Fuse(progs)
	if err != nil {
		var fe *isa.FuseError
		if errors.As(err, &fe) {
			e.st.fusionReject(fe.Reason)
		} else {
			e.st.fusionReject("error")
		}
		return false
	}

	// The run executes under the head member's context: the members
	// share one physical run, so one member's deadline bounds it. On
	// any error the whole group re-runs solo, each member under its
	// own context, so a head cancellation never answers for the rest.
	m.ClearMarkers()
	start := time.Now()
	res, err := m.RunFused(live[0].ctx, f)
	if err != nil {
		if errors.Is(err, machine.ErrFusionAmbiguous) {
			e.st.fusionReject("ambiguous")
		}
		return false
	}
	e.st.fusedRun(time.Since(start), len(live))
	e.noteSuccess(rank)
	if p := res.Profile; p != nil {
		// One physical run: the interconnect moved each message once,
		// however many queries rode it.
		e.st.icn(p.PropMessages, p.PropHops, p.SendBursts)
	}
	e.emit(rank, perfmon.EvQueryFused, uint32(len(live)), res.Time)
	parts := res.Demux(f)
	for i, req := range live {
		if req.opt != nil && req.opt.Changed() {
			// The member ran in its optimized form: hand collections
			// back under the instruction indices the caller submitted.
			parts[i].RemapInstrs(req.opt.OrigIndex)
		}
		e.emit(rank, perfmon.EvQueryDone, uint32(parts[i].Time), parts[i].Time)
		req.resp <- response{res: parts[i]}
	}
	return true
}

// SubmitBatch submits a set of independent read-only programs in one
// call, enqueuing every cache-missing member contiguously on a single
// shard so the serving replica drains them in one round and can fuse
// them into a single machine run. Results and errors are positional:
// errs[i] is non-nil exactly when results[i] is nil. Per-element
// admission matches Submit (validation, mutating-program rejection,
// result-cache hits); unlike Submit, members that execute are not
// retried and their results are not memoized (a fused result's virtual
// time is not solo-reproducible).
func (e *Engine) SubmitBatch(ctx context.Context, progs []*isa.Program) ([]*machine.Result, []error) {
	results := make([]*machine.Result, len(progs))
	errs := make([]error, len(progs))
	if len(progs) == 0 {
		return results, errs
	}
	select {
	case <-e.done:
		for i := range errs {
			errs[i] = ErrClosed
		}
		return results, errs
	default:
	}
	if e.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.QueryTimeout)
		defer cancel()
	}

	gen := e.readGen()
	pending := make([]int, 0, len(progs))   // indices awaiting execution
	hashes := make([]uint64, 0, len(progs)) // hashes[j] is progs[pending[j]]'s
	for i, prog := range progs {
		if prog.Mutating() {
			e.st.reject()
			errs[i] = ErrMutatingProgram
			continue
		}
		if err := prog.Validate(); err != nil {
			e.st.reject()
			errs[i] = err
			continue
		}
		h := prog.Hash()
		if e.results != nil {
			if res, ok := e.results.get(h, gen); ok {
				e.st.resultHit()
				e.emit(-1, perfmon.EvResultHit, uint32(res.Time), res.Time)
				results[i] = res
				continue
			}
			e.st.resultMiss()
		}
		pending = append(pending, i)
		hashes = append(hashes, h)
	}
	if len(pending) == 0 {
		return results, errs
	}

	// Optimization is compile-tier work: run it (once per content hash)
	// before admission, so it never occupies queue or in-flight slots.
	opts := make([]*isa.Optimized, len(pending))
	for j, i := range pending {
		opts[j] = e.optimize(progs[i], hashes[j])
	}

	// Admission control covers the whole pending set at once.
	n := int64(len(pending))
	if q := e.queued.Add(n); int(q) > e.cfg.QueueCap {
		e.queued.Add(-n)
		err := e.shed()
		for _, i := range pending {
			errs[i] = err
		}
		return results, errs
	}
	if e.cfg.MaxInFlight > 0 && int(e.inflight.Add(n)) > e.cfg.MaxInFlight {
		e.inflight.Add(-n)
		e.queued.Add(-n)
		err := e.shed()
		for _, i := range pending {
			errs[i] = err
		}
		return results, errs
	} else if e.cfg.MaxInFlight <= 0 {
		e.inflight.Add(n)
	}
	defer e.inflight.Add(-n)

	reqs := make([]*request, len(pending))
	for j, i := range pending {
		reqs[j] = &request{
			ctx: ctx, prog: progs[i], opt: opts[j], hash: hashes[j],
			gen:  gen,
			resp: make(chan response, 1), enqueued: time.Now(),
		}
	}
	sh := e.shards[e.pickShard(reqs[0].hash, 0)]
	depth := sh.pushAll(reqs)
	for range reqs {
		e.st.submit()
	}
	e.emit(-1, perfmon.EvQuerySubmit, uint32(depth), 0)
	e.wake()

	for j, i := range pending {
		select {
		case r := <-reqs[j].resp:
			results[i], errs[i] = r.res, r.err
		case <-ctx.Done():
			e.st.cancel()
			errs[i] = ctx.Err()
		case <-e.done:
			errs[i] = ErrClosed
		}
	}
	return results, errs
}
