package machine

import (
	"fmt"

	"snap1/internal/semnet"
)

// Incremental replica sync: a loaded machine tracks the KB generation
// its cluster tables reflect (kbGen) and can be patched forward to a
// newer generation by replaying the KB's topology delta log instead of
// re-running the full partition/placement/download pipeline. Each record
// is routed to the one cluster owning the touched node — partition-aware
// routing — so the cost is O(records · degree), proportional to the
// delta, not the knowledge base.

// KBGeneration reports the KB generation the machine's loaded cluster
// tables currently reflect (zero before LoadKB).
func (m *Machine) KBGeneration() uint64 { return m.kbGen }

// ApplyDelta replays a contiguous run of delta records onto the loaded
// cluster tables, advancing the machine's KB generation to `to`. The
// records must be exactly the KB's DeltaRange(m.KBGeneration(), to) —
// ascending, gap-free from the machine's current generation. Marker
// state is untouched: delta replay only rewrites node/relation tables,
// so marker-plane invariants (and the dirty-row mask) are preserved.
//
// A non-replayable record (semnet.ErrDeltaUnsupported: node creation or
// a preprocessor reshape moved the partition assignment) or a routing
// failure returns an error with the tables possibly partially patched;
// the caller must recover with whole tables: a full LoadKB re-download,
// or AdoptTopology of a machine that kept the same partition.
func (m *Machine) ApplyDelta(recs []semnet.DeltaRec, to uint64) error {
	if m.kb == nil {
		return ErrNoKB
	}
	from := m.kbGen
	for i := range recs {
		rec := &recs[i]
		if !rec.Replayable() {
			return fmt.Errorf("machine: delta gen %d: %w", rec.Gen, semnet.ErrDeltaUnsupported)
		}
		if rec.Gen <= from || rec.Gen > to {
			return fmt.Errorf("machine: delta gen %d outside (%d, %d]", rec.Gen, from, to)
		}
		if int(rec.Node) >= len(m.assign) {
			return fmt.Errorf("machine: delta gen %d: node %d not in loaded assignment", rec.Gen, rec.Node)
		}
		c := m.clusters[m.assign[rec.Node]]
		if err := c.store.ApplyDelta(int(m.localIdx[rec.Node]), rec); err != nil {
			return fmt.Errorf("machine: delta gen %d (%s node %d): %w", rec.Gen, rec.Op, rec.Node, err)
		}
	}
	m.kbGen = to
	return nil
}
