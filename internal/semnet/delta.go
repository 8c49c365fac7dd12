package semnet

import (
	"errors"
	"fmt"
	"sort"
)

// Topology delta log: every KB mutation that could change a query's
// result appends one compact record tagged with the generation that
// produced it, so a machine holding the topology of generation g can be
// patched forward to g' by replaying DeltaRange(g, g'). The engine's
// replicas do not replay (they adopt the writer's snapshot); the
// benchmark's traced follower and the replay tests do.
//
// The log is bounded: once it outgrows DefaultDeltaLogCap the oldest
// records are dropped and the truncation floor rises, below which
// DeltaRange reports ok=false. Node creation and preprocessor reshapes,
// which change the partition assignment, are logged as DeltaRebuild
// records that cannot be replayed in place.

// DeltaOp identifies one topology delta record kind.
type DeltaOp uint8

const (
	// DeltaAddLink appends one relation-table entry at Node.
	DeltaAddLink DeltaOp = iota
	// DeltaRemoveLink deletes Node's first entry matching (Link.Rel, Link.To).
	DeltaRemoveLink
	// DeltaSetColor rewrites Node's node-table color.
	DeltaSetColor
	// DeltaSetFn rewrites Node's propagation function.
	DeltaSetFn
	// DeltaRebuild marks a mutation that cannot be replayed in place
	// (node creation, preprocessor reshape): the partition assignment
	// itself may have changed, so a replica crossing this record must
	// re-download the knowledge base in full.
	DeltaRebuild
)

// String names the delta op for diagnostics.
func (op DeltaOp) String() string {
	switch op {
	case DeltaAddLink:
		return "add-link"
	case DeltaRemoveLink:
		return "remove-link"
	case DeltaSetColor:
		return "set-color"
	case DeltaSetFn:
		return "set-fn"
	case DeltaRebuild:
		return "rebuild"
	}
	return fmt.Sprintf("delta-op#%d", uint8(op))
}

// DeltaRec is one packed topology mutation record. Gen is the KB
// generation the mutation produced (each record owns one generation;
// the log is strictly ascending in Gen).
type DeltaRec struct {
	Gen   uint64
	Op    DeltaOp
	Node  NodeID
	Link  Link // AddLink / RemoveLink payload
	Color Color
	Fn    FuncCode
}

// Replayable reports whether the record can be applied in place to a
// loaded partition (false forces a full re-download).
func (r *DeltaRec) Replayable() bool { return r.Op != DeltaRebuild }

// ErrDeltaUnsupported is returned when a delta record cannot be replayed
// in place on a loaded store (the caller must fall back to a full
// re-download).
var ErrDeltaUnsupported = errors.New("semnet: delta record not replayable in place")

// deltaLog is the KB-embedded bounded mutation log (zero value: disabled).
type deltaLog struct {
	on    bool
	recs  []DeltaRec
	floor uint64 // highest generation dropped by truncation (or the enable point)
}

// DefaultDeltaLogCap bounds the delta log.
const DefaultDeltaLogCap = 4096

// EnableDeltaLog starts recording topology mutations into a log of at
// most DefaultDeltaLogCap records. The truncation floor starts at the
// current generation: deltas are available from this point forward.
// Enabling an already-enabled log does nothing.
func (kb *KB) EnableDeltaLog() {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if !kb.delta.on {
		kb.delta = deltaLog{on: true, floor: kb.gen.Load()}
	}
}

// record appends one mutation record. Caller holds kb.mu and has already
// bumped the generation; the record is stamped with the new value.
func (kb *KB) record(rec DeltaRec) {
	if !kb.delta.on {
		return
	}
	rec.Gen = kb.gen.Load()
	kb.delta.recs = append(kb.delta.recs, rec)
	if len(kb.delta.recs) > DefaultDeltaLogCap {
		// Drop down to half capacity in one move so truncation cost is
		// amortized O(1) per append rather than O(cap).
		drop := len(kb.delta.recs) - DefaultDeltaLogCap/2
		kb.delta.floor = kb.delta.recs[drop-1].Gen
		kb.delta.recs = append(kb.delta.recs[:0], kb.delta.recs[drop:]...)
	}
}

// DeltaRange returns a copy of the records with from < Gen <= to, in
// ascending generation order. ok is false when the log is disabled or
// truncation has dropped records after from — the caller's snapshot is
// too old to patch forward and must be re-downloaded in full.
func (kb *KB) DeltaRange(from, to uint64) (recs []DeltaRec, ok bool) {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	if !kb.delta.on || from < kb.delta.floor {
		return nil, false
	}
	log := kb.delta.recs
	lo := sort.Search(len(log), func(i int) bool { return log[i].Gen > from })
	hi := sort.Search(len(log), func(i int) bool { return log[i].Gen > to })
	return append([]DeltaRec(nil), log[lo:hi]...), true
}

// ApplyDelta applies one routed delta record to the store's local node
// (the machine routes each record to the cluster owning rec.Node). The
// CSR arena patches in place in O(degree); a non-replayable record
// returns ErrDeltaUnsupported and the caller falls back to a full
// re-download.
func (s *Store) ApplyDelta(local int, rec *DeltaRec) error {
	switch rec.Op {
	case DeltaAddLink:
		return s.AddLink(local, rec.Link)
	case DeltaRemoveLink:
		s.RemoveLink(local, rec.Link.Rel, rec.Link.To)
		return nil
	case DeltaSetColor:
		return s.SetColor(local, rec.Color)
	case DeltaSetFn:
		return s.SetFn(local, rec.Fn)
	default:
		return fmt.Errorf("%w: %s", ErrDeltaUnsupported, rec.Op)
	}
}
