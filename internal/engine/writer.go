package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
	"snap1/internal/semnet"
)

// The online write path (Config.Writes). Mutating programs execute
// serialized on one dedicated writer machine — a lockstep replica over
// the master KB, outside the serving pool — and publish epoch-style:
//
//	SubmitWrite → write queue (queue.go; what the writer pops is the group)
//	            → RunContext on the writer machine, write by write
//	              (every store mutation mirrored into the KB, each
//	               tagged in the KB's topology delta log)
//	            → publish: pubGen := kb.Generation()
//	            → result-cache generation sweep, EvWriteCommitted
//	            → respond to the group's callers
//
// Reads never block on writes: admission reads the published epoch
// (pubGen) with one atomic load, and each serving replica patches its
// cluster tables forward by replaying the delta log before its next run
// (syncReplica) — cost proportional to the delta, with full
// re-download only as the truncation/rebuild fallback. Responses are
// sent after publish, so a caller whose write returned is guaranteed
// read-your-writes on every subsequently admitted query.

// Write-path sentinel errors.
var (
	// ErrWritesDisabled is returned by SubmitWrite (and mapped to HTTP
	// 403 writes_disabled) when the engine was built without
	// Config.Writes.
	ErrWritesDisabled = errors.New("engine: writes disabled (enable with WithWrites)")
	// ErrWriteConflict marks a write refused by the current topology
	// state — a relation-slot capacity overflow or an unknown node —
	// where retrying verbatim cannot succeed until the topology changes.
	// HTTP surface: 409 conflict.
	ErrWriteConflict = errors.New("engine: write conflict")
	// ErrWriteFailed marks a write whose execution failed after
	// admission for any other reason; the KB may hold a committed
	// prefix of the program's mutations (published like any commit).
	// HTTP surface: 500 write_failed.
	ErrWriteFailed = errors.New("engine: write failed")
)

// writeQueueCap bounds writes queued for the serialized writer
// (SubmitWrite beyond it fails fast with ErrOverloaded); writeBatch
// bounds how many adjacent queued writes fold into one group commit —
// one epoch publish, one delta sync per replica.
const writeQueueCap, writeBatch = 64, 8

// SubmitWrite enqueues a topology-mutating program for the serialized
// writer and blocks until it commits and its epoch is published (or the
// context/engine dies first). Read-only programs are legal too — they
// observe the master KB between writes — but Submit is the right door
// for them. A write is a request like a read's, on the write queue, and
// waits the same way, but it is not idempotent: it is never retried,
// deduplicated or memoized. The returned Result's KBGen is the
// generation the write produced.
//
// A write that fails mid-program (ErrWriteFailed) may leave a committed
// prefix of its mutations: the SNAP array has no transactional rollback,
// so partial effects publish like any commit. ErrWriteConflict means
// topology state refused the mutation (relation slots full, unknown
// node).
func (e *Engine) SubmitWrite(ctx context.Context, prog *isa.Program) (*machine.Result, error) {
	if e.writeQ == nil {
		e.st.add(&e.st.Rejected, 1)
		return nil, ErrWritesDisabled
	}
	if err := prog.Validate(); err != nil {
		e.st.add(&e.st.Rejected, 1)
		return nil, err
	}
	req := &request{ctx: ctx, prog: prog, resp: make(chan response, 1)}
	if err := e.writeQ.push(req); err != nil {
		if err == ErrOverloaded {
			// Queue full: shed rather than block the caller behind a burst.
			return nil, e.shed()
		}
		return nil, err
	}
	// On ctx.Done the write may still commit: the caller only loses the
	// ack. The writer counts it, once, whichever side stopped waiting.
	select {
	case r := <-req.resp:
		return r.res, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.life.Done():
		return nil, ErrClosed
	}
}

// writeLoop is the dedicated writer goroutine. A round off the write
// queue is everything queued, up to writeBatch: the group commit.
func (e *Engine) writeLoop() {
	defer e.wg.Done()
	group := make([]*request, 0, writeBatch)
	for {
		if group = e.writeQ.pop(group[:0]); len(group) == 0 {
			return // closed
		}
		e.commitGroup(group)
	}
}

// commitGroup runs a group of writes back-to-back on the writer machine
// and publishes one epoch covering all of them. Responses go out after
// the publish, so an acked write is visible to every later-admitted
// read.
func (e *Engine) commitGroup(group []*request) {
	resps := make([]response, len(group))
	e.writeMu.Lock()
	for i, w := range group {
		if err := w.ctx.Err(); err != nil {
			e.st.add(&e.st.Canceled, 1)
			resps[i].err = err
			continue
		}
		e.writer.ClearMarkers()
		start := time.Now()
		res, err := e.writer.RunContext(w.ctx, w.prog)
		e.st.write(time.Since(start), err)
		if err != nil {
			resps[i].err = classifyWriteErr(err)
			continue
		}
		resps[i].res = res
	}
	newGen := e.kb.Generation()
	e.writeMu.Unlock()

	if newGen != e.pubGen.Load() {
		e.pubGen.Store(newGen)
		if e.results != nil {
			if n := evictBefore(e.results, newGen); n > 0 {
				e.st.add(&e.st.ResultGenEvicted, n)
			}
		}
		e.st.add(&e.st.WriteCommits, 1)
		e.emit(-1, perfmon.EvWriteCommitted, uint32(len(group)), 0)
	}
	for i, w := range group {
		w.resp <- resps[i]
	}
}

// classifyWriteErr maps a writer-run failure onto the write-path
// sentinels. Context errors and bad programs pass through untouched
// (they already classify); topology-state refusals become
// ErrWriteConflict, everything else ErrWriteFailed.
func classifyWriteErr(err error) error {
	switch {
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, isa.ErrBadProgram),
		errors.Is(err, machine.ErrNoKB):
		return err
	case errors.Is(err, semnet.ErrCapacity),
		errors.Is(err, semnet.ErrUnknownNode):
		return fmt.Errorf("%w: %w", ErrWriteConflict, err)
	default:
		return fmt.Errorf("%w: %w", ErrWriteFailed, err)
	}
}

// syncReplica brings a serving replica's cluster tables up to the
// published epoch before it runs a query: replay the KB's delta records
// in place — O(delta), partition-routed, marker state untouched — or,
// when the log was truncated or carries a non-replayable rebuild
// record, fall back to a full LoadKB re-download under the write lock
// (the one sync path that must see a quiescent master KB).
func (e *Engine) syncReplica(rank int, m *machine.Machine) {
	if e.writeQ == nil {
		return
	}
	to := e.pubGen.Load()
	from := m.KBGeneration()
	if from == to {
		return
	}
	if recs, ok := e.kb.DeltaRange(from, to); ok {
		replayable := true
		for i := range recs {
			if !recs[i].Replayable() {
				replayable = false
				break
			}
		}
		if replayable {
			if err := m.ApplyDelta(recs, to); err == nil {
				e.st.deltaApplied(len(recs))
				e.emit(rank, perfmon.EvKBDeltaApplied, uint32(len(recs)), 0)
				return
			}
			// Partial patch: the full re-download below rebuilds every
			// table from the master KB, erasing any half-applied state.
		}
	}
	e.writeMu.Lock()
	err := m.LoadKB(e.kb)
	e.writeMu.Unlock()
	if err != nil {
		// Keep serving the stale snapshot; the next boundary retries.
		return
	}
	e.st.add(&e.st.FullReloads, 1)
}
