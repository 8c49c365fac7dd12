package snap1

import (
	"snap1/internal/engine"
	"snap1/internal/fault"
	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

// Typed sentinel errors of the public API. Branch with errors.Is:
//
//	if errors.Is(err, snap1.ErrKBNotLoaded) { ... }
var (
	// ErrKBNotLoaded is returned by Run/RunContext/Clone before a
	// knowledge base has been loaded with LoadKB.
	ErrKBNotLoaded = machine.ErrNoKB

	// ErrNodeCapacity is returned when a knowledge base or a cluster's
	// node table exceeds its configured capacity (LoadKB, KB building).
	ErrNodeCapacity = semnet.ErrCapacity

	// ErrBadProgram is returned for any rejected program: out-of-range
	// operands, an unknown rule token, assembly text that does not
	// parse, or (from an Engine) a topology-mutating query.
	ErrBadProgram = isa.ErrBadProgram

	// ErrEngineClosed is returned by Engine.Submit after Engine.Close.
	ErrEngineClosed = engine.ErrClosed

	// ErrEngineOverloaded is returned by Engine.Submit when admission
	// control sheds the query: the line of callers waiting for a replica
	// is full or the in-flight ceiling is reached. Retry after backoff.
	ErrEngineOverloaded = engine.ErrOverloaded

	// ErrFaultInjected marks a run poisoned by injected ICN corruption
	// under an active fault plan. The failure is transient by
	// construction — a clean re-run returns the bit-identical result —
	// so the engine retries it automatically and HTTP clients see
	// retryable=true.
	ErrFaultInjected = fault.ErrInjected

	// ErrWritesDisabled is returned by Engine.SubmitWrite when the engine
	// was built without WithWrites(true).
	ErrWritesDisabled = engine.ErrWritesDisabled

	// ErrWriteConflict marks a write refused by current topology state
	// (relation slots full, unknown node); retrying verbatim cannot
	// succeed until the topology changes.
	ErrWriteConflict = engine.ErrWriteConflict

	// ErrWriteFailed marks a write whose execution failed after admission
	// for any other reason; a committed prefix of its mutations may have
	// published.
	ErrWriteFailed = engine.ErrWriteFailed
)
