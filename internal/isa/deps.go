package isa

import (
	"fmt"
	"math/bits"

	"snap1/internal/semnet"
)

// MarkerSet is a bitset over the 128 marker registers, used for the data
// dependency analysis that lets the processing unit overlap independent
// PROPAGATE statements (β-parallelism, Section II-C).
type MarkerSet struct{ lo, hi uint64 }

// Add inserts marker m. An out-of-range ID panics: silently dropping it
// would under-report dependencies and let the overlap window or the
// optimizer's renaming corrupt results without a trace. Marker IDs come
// from validated instructions, so a bad one here is a compiler bug, not
// user input.
func (s *MarkerSet) Add(m semnet.MarkerID) {
	if m < 64 {
		s.lo |= 1 << m
	} else if m < semnet.NumMarkers {
		s.hi |= 1 << (m - 64)
	} else {
		panic(fmt.Sprintf("isa: MarkerSet.Add: marker %d out of range [0,%d)", m, semnet.NumMarkers))
	}
}

// Remove deletes marker m from the set. Out-of-range IDs panic, as in
// Add.
func (s *MarkerSet) Remove(m semnet.MarkerID) {
	if m < 64 {
		s.lo &^= 1 << m
	} else if m < semnet.NumMarkers {
		s.hi &^= 1 << (m - 64)
	} else {
		panic(fmt.Sprintf("isa: MarkerSet.Remove: marker %d out of range [0,%d)", m, semnet.NumMarkers))
	}
}

// Contains reports whether m is in the set.
func (s MarkerSet) Contains(m semnet.MarkerID) bool {
	if m < 64 {
		return s.lo&(1<<m) != 0
	}
	if m < semnet.NumMarkers {
		return s.hi&(1<<(m-64)) != 0
	}
	return false
}

// Intersects reports whether the two sets share any marker.
func (s MarkerSet) Intersects(o MarkerSet) bool {
	return s.lo&o.lo != 0 || s.hi&o.hi != 0
}

// Union returns the combined set.
func (s MarkerSet) Union(o MarkerSet) MarkerSet {
	return MarkerSet{lo: s.lo | o.lo, hi: s.hi | o.hi}
}

// Empty reports whether the set holds no markers.
func (s MarkerSet) Empty() bool { return s.lo == 0 && s.hi == 0 }

// Bits exposes the set as two 64-bit rows — bit i of lo is complex
// marker i, bit i of hi is binary marker 64+i — matching the status
// slab's row order so plane-masked store operations (semnet.Store
// ClearRows) can take the mask without importing this package.
func (s MarkerSet) Bits() (lo, hi uint64) { return s.lo, s.hi }

// MarkerSetFromBits is the inverse of Bits.
func MarkerSetFromBits(lo, hi uint64) MarkerSet { return MarkerSet{lo: lo, hi: hi} }

// ForEach calls f for every marker in the set in ascending order.
func (s MarkerSet) ForEach(f func(m semnet.MarkerID)) {
	for w, word := range [2]uint64{s.lo, s.hi} {
		base := semnet.MarkerID(w * 64)
		for b := 0; word != 0; b, word = b+1, word>>1 {
			if word&1 != 0 {
				f(base + semnet.MarkerID(b))
			}
		}
	}
}

// Count reports the number of markers in the set.
func (s MarkerSet) Count() int { return bits.OnesCount64(s.lo) + bits.OnesCount64(s.hi) }

// Reads returns the set of markers whose status or value the instruction
// consumes.
func (in *Instruction) Reads() MarkerSet {
	var s MarkerSet
	switch in.Op {
	case OpPropagate:
		s.Add(in.M1)
		s.Add(in.M2) // merge semantics read the destination marker too
	case OpAndMarker, OpOrMarker:
		s.Add(in.M1)
		s.Add(in.M2)
	case OpNotMarker:
		s.Add(in.M1)
	case OpFuncMarker, OpCollectNode, OpCollectRelation, OpCollectColor,
		OpMarkerCreate, OpMarkerDelete, OpMarkerSetColor:
		s.Add(in.M1)
	}
	return s
}

// Writes returns the set of markers whose status or value the instruction
// produces.
func (in *Instruction) Writes() MarkerSet {
	var s MarkerSet
	switch in.Op {
	case OpSearchNode, OpSearchRelation, OpSearchColor,
		OpSetMarker, OpClearMarker, OpFuncMarker:
		s.Add(in.M1)
	case OpPropagate, OpNotMarker:
		s.Add(in.M2)
	case OpAndMarker, OpOrMarker:
		s.Add(in.M3)
	}
	return s
}

// Serializing reports whether the instruction forces the processing unit
// to drain its overlap window before (and while) executing: COLLECT-NODE
// and COMM-END per Section III-A ("The PU continues processing until any
// of the following occur: a COLLECT-NODE opcode is received, a COMM-END
// barrier synchronization is requested, or the queue is full").
func (in *Instruction) Serializing() bool {
	switch in.Op {
	case OpCollectNode, OpCollectRelation, OpCollectColor, OpCommEnd,
		OpCreate, OpDelete, OpSetColor, OpMarkerCreate, OpMarkerDelete:
		// Retrieval and barrier per the paper; structural (topology-
		// mutating) instructions also serialize because in-flight
		// propagation reads the relation table they modify.
		return true
	}
	return false
}

// Independent reports whether instructions a and b have no marker data
// dependency in either direction, and so may overlap in the PU's issue
// window (the β-parallelism condition: "there are no data dependencies in
// the markers used").
//
// Serializing instructions — including COMM-END — are never independent:
// they drain the window by definition, even though COMM-END itself
// touches no markers. Query fusion must therefore NOT merge the
// sub-programs' COMM-ENDs into one shared global barrier (which would
// serialize against every plane); each fused sub-program keeps its own
// termination, and the plane-level disjointness question is answered by
// MarkerDisjoint instead.
func Independent(a, b *Instruction) bool {
	if a.Serializing() || b.Serializing() {
		return false
	}
	return MarkerDisjoint(a, b)
}

// MarkerDisjoint reports whether a and b touch disjoint marker planes:
// no write of either intersects the reads or writes of the other. Unlike
// Independent it ignores the serializing property, so COMM-END (which
// uses no markers) is disjoint with everything — the condition under
// which renamed sub-programs may be concatenated into one fused program
// without their instructions interfering.
func MarkerDisjoint(a, b *Instruction) bool {
	aw, bw := a.Writes(), b.Writes()
	return !aw.Intersects(b.Reads()) && !aw.Intersects(bw) &&
		!bw.Intersects(a.Reads())
}

// Markers returns the set of marker planes the program reads or writes.
func (p *Program) Markers() MarkerSet {
	var s MarkerSet
	for i := range p.Instrs {
		in := &p.Instrs[i]
		s = s.Union(in.Reads()).Union(in.Writes())
	}
	return s
}

// WriteSet returns the set of marker planes the program writes — the
// rows a run of the program can dirty, used by the machine's masked
// per-plane marker clear.
func (p *Program) WriteSet() MarkerSet {
	var s MarkerSet
	for i := range p.Instrs {
		s = s.Union(p.Instrs[i].Writes())
	}
	return s
}

// DefaultWindowDepth is the PU's circular instruction queue depth: "up to
// 64 instructions can be overlapped".
const DefaultWindowDepth = 64

// Window is the PU's overlap window: the marker planes the pending
// PROPAGATEs read and write, and how many of them there are. Only
// PROPAGATEs enter it; an instruction that conflicts with it, a
// serializing instruction or a full queue flushes it. The machine's
// dispatch loop and the optimizer's replay of it both decide with this
// one rule. The zero Window is empty.
type Window struct {
	n             int
	reads, writes MarkerSet
}

// Len reports how many instructions are pending.
func (w *Window) Len() int { return w.n }

// Conflicts reports whether in has a marker data dependency with a
// pending instruction.
func (w *Window) Conflicts(in *Instruction) bool {
	if w.n == 0 {
		return false
	}
	wr := in.Writes()
	return wr.Intersects(w.reads) || wr.Intersects(w.writes) ||
		in.Reads().Intersects(w.writes)
}

// Push adds in to the pending instructions.
func (w *Window) Push(in *Instruction) {
	w.n++
	w.reads = w.reads.Union(in.Reads())
	w.writes = w.writes.Union(in.Writes())
}

// Reset empties the window: a flush.
func (w *Window) Reset() { *w = Window{} }
