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
// one at a time on one writer machine — a lockstep replica over the
// master KB, outside the serving pool — on the goroutine that submitted
// them, and publish epoch-style:
//
//	SubmitWrite → the writes pool (pool.go: one rank, a FIFO line)
//	            → RunContext on the writer machine
//	              (every store mutation mirrored into the KB)
//	            → publish: snap := writer.Publish(), one atomic store
//	            → result-cache generation sweep, EvWriteCommitted
//	            → release the writer, answer the caller
//
// Reads never block on writes: admission reads the published epoch
// (the snapshot's generation) with one atomic load, and a serving
// replica whose generation differs adopts the snapshot before its next
// run (syncReplica): it takes the writer's tables as they were at the
// publish, shared copy-on-write, with no lock. The writer copies a store
// before its next mutation of it, so no published table is ever
// written. A write returns after its publish, so a caller whose write
// returned is guaranteed read-your-writes on every subsequently admitted
// query.

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

// writeLineCap bounds the writes waiting for the writer; SubmitWrite
// beyond it fails fast with ErrOverloaded.
const writeLineCap = 64

// SubmitWrite runs a topology-mutating program on the writer, on the
// calling goroutine, and returns once it has committed and its epoch is
// published. While another write runs it waits in the writes pool's
// line; a context that ends there, or has ended by the time the writer
// is free, returns its error and the program never runs. Read-only
// programs are legal too — they observe the master KB between writes —
// but Submit is the right door for them. A write is not idempotent: it
// is never retried, deduplicated or memoized. The returned Result's
// KBGen is the generation the write produced. Close waits for the write
// in progress, so its answer is always the truth.
//
// A write that fails mid-program (ErrWriteFailed) may leave a committed
// prefix of its mutations: the SNAP array has no transactional rollback,
// so partial effects publish like any commit. ErrWriteConflict means
// topology state refused the mutation (relation slots full, unknown
// node).
func (e *Engine) SubmitWrite(ctx context.Context, prog *isa.Program) (*machine.Result, error) {
	if e.writer == nil {
		e.st.add(&e.st.Rejected, 1)
		return nil, ErrWritesDisabled
	}
	if err := prog.Validate(); err != nil {
		e.st.add(&e.st.Rejected, 1)
		return nil, err
	}
	rank, err := e.writes.acquire(ctx)
	if err == nil {
		defer e.writes.release(rank)
		err = ctx.Err()
	}
	switch {
	case err == ErrOverloaded:
		// Line full: shed rather than block the caller behind a burst.
		return nil, e.shed()
	case err == ErrClosed:
		return nil, err
	case err != nil:
		e.st.add(&e.st.Canceled, 1)
		return nil, err
	}

	e.writer.ClearMarkers()
	start := time.Now()
	res, err := e.writer.RunContext(ctx, prog)
	e.st.write(time.Since(start), err)

	// Publish before the writer is released and the caller answered, so an
	// acked write is visible to every later-admitted read. A failed write
	// may have committed a prefix: that publishes too.
	if newGen := e.writer.KBGeneration(); newGen != e.readGen() {
		e.snap.Store(e.writer.Publish())
		if e.results != nil {
			if n := evictBefore(e.results, newGen); n > 0 {
				e.st.add(&e.st.ResultGenEvicted, n)
			}
		}
		e.st.add(&e.st.WriteCommits, 1)
		e.emit(-1, perfmon.EvWriteCommitted, 1, 0)
	}
	if err != nil {
		return nil, classifyWriteErr(err)
	}
	return res, nil
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

// syncReplica brings a serving replica up to the published epoch before
// it runs a query: a replica at another generation adopts the published
// snapshot in place — the writer's tables, shared copy-on-write, and the
// writer's partition, so the network is never partitioned again: the
// paper's mapping function places it once, at download, and a replica on
// another partition would answer with other virtual times than its
// siblings.
func (e *Engine) syncReplica(m *machine.Machine) {
	if s := e.snap.Load(); m.KBGeneration() != s.Generation() {
		m.Adopt(s)
	}
}
