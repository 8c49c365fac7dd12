package isa

import (
	"testing"
	"testing/quick"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

func prop(m1, m2 semnet.MarkerID) Instruction {
	return Instruction{Op: OpPropagate, M1: m1, M2: m2, Rule: 1, Fn: semnet.FuncNop}
}

func TestMarkerSetBasics(t *testing.T) {
	var s MarkerSet
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("zero set")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(127)
	if s.Count() != 4 {
		t.Fatalf("Count = %d", s.Count())
	}
	for _, m := range []semnet.MarkerID{0, 63, 64, 127} {
		if !s.Contains(m) {
			t.Errorf("missing %d", m)
		}
	}
	if s.Contains(1) || s.Contains(200) {
		t.Error("spurious membership")
	}
	s.Remove(63)
	s.Remove(64)
	if s.Count() != 2 || s.Contains(63) || s.Contains(64) {
		t.Errorf("after Remove: count=%d", s.Count())
	}
	if !s.Contains(0) || !s.Contains(127) {
		t.Error("Remove deleted the wrong markers")
	}
}

// Out-of-range marker IDs must panic rather than be silently dropped:
// a dropped bit under-reports dependencies, which would let the overlap
// window (or the optimizer's plane renaming) reorder conflicting
// instructions without any visible failure.
func TestMarkerSetBounds(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on out-of-range marker did not panic", name)
			}
		}()
		f()
	}
	var s MarkerSet
	mustPanic("Add", func() { s.Add(semnet.NumMarkers) })
	mustPanic("Add", func() { s.Add(200) })
	mustPanic("Remove", func() { s.Remove(semnet.NumMarkers) })
	if !s.Empty() {
		t.Error("failed Add mutated the set")
	}
	// The boundary IDs themselves are fine.
	s.Add(semnet.NumMarkers - 1)
	if !s.Contains(semnet.NumMarkers - 1) {
		t.Error("highest valid marker rejected")
	}
}

func TestMarkerSetOpsQuick(t *testing.T) {
	f := func(a, b []uint8) bool {
		var sa, sb MarkerSet
		ref := make(map[semnet.MarkerID]bool)
		for _, m := range a {
			sa.Add(semnet.MarkerID(m % 128))
			ref[semnet.MarkerID(m%128)] = true
		}
		shared := false
		for _, m := range b {
			sb.Add(semnet.MarkerID(m % 128))
			if ref[semnet.MarkerID(m%128)] {
				shared = true
			}
		}
		if sa.Intersects(sb) != shared {
			return false
		}
		u := sa.Union(sb)
		for m := 0; m < 128; m++ {
			id := semnet.MarkerID(m)
			if u.Contains(id) != (sa.Contains(id) || sb.Contains(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropagateReadsWrites(t *testing.T) {
	in := prop(3, 9)
	r, w := in.Reads(), in.Writes()
	if !r.Contains(3) || !r.Contains(9) {
		t.Error("propagate reads its source and (for merge) destination")
	}
	if !w.Contains(9) || w.Contains(3) {
		t.Error("propagate writes only its destination")
	}
}

func TestIndependence(t *testing.T) {
	a := prop(1, 2)
	b := prop(3, 4)
	if !Independent(&a, &b) {
		t.Error("disjoint marker pairs must be independent")
	}
	c := prop(2, 5) // reads a's output
	if Independent(&a, &c) {
		t.Error("read-after-write dependency missed")
	}
	d := prop(6, 2) // writes a's output
	if Independent(&a, &d) {
		t.Error("write-after-write dependency missed")
	}
	e := prop(5, 1) // writes a's input
	if Independent(&a, &e) {
		t.Error("write-after-read dependency missed")
	}
	coll := Instruction{Op: OpCollectNode, M1: 60}
	if Independent(&a, &coll) {
		t.Error("retrieval serializes the window")
	}
	barrier := Instruction{Op: OpCommEnd}
	if Independent(&a, &barrier) {
		t.Error("COMM-END serializes the window")
	}
}

func TestIndependentSymmetricQuick(t *testing.T) {
	f := func(m1, m2, m3, m4 uint8) bool {
		a := prop(semnet.MarkerID(m1%128), semnet.MarkerID(m2%128))
		b := prop(semnet.MarkerID(m3%128), semnet.MarkerID(m4%128))
		return Independent(&a, &b) == Independent(&b, &a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSerializingSet(t *testing.T) {
	serializing := []Opcode{
		OpCollectNode, OpCollectRelation, OpCollectColor, OpCommEnd,
		OpCreate, OpDelete, OpSetColor, OpMarkerCreate, OpMarkerDelete,
	}
	for _, op := range serializing {
		in := Instruction{Op: op}
		if !in.Serializing() {
			t.Errorf("%v must serialize", op)
		}
	}
	for _, op := range []Opcode{OpPropagate, OpSetMarker, OpAndMarker, OpSearchColor} {
		in := Instruction{Op: op}
		if in.Serializing() {
			t.Errorf("%v must not serialize", op)
		}
	}
}

// The overlap window over a stream: independent PROPAGATEs share one, a
// PROPAGATE that reads a pending one's destination flushes it, and a
// serializing instruction drains it, so overlap never reaches across.
func TestWindowFormation(t *testing.T) {
	spec := rules.Path(1)
	p := NewProgram()
	p.Propagate(1, 2, spec, semnet.FuncNop)   // window 0
	p.Propagate(3, 4, spec, semnet.FuncNop)   // independent of #0: joins it
	p.Propagate(2, 7, spec, semnet.FuncNop)   // reads #0's output: window 1
	p.Propagate(10, 11, spec, semnet.FuncNop) // joins window 1
	p.CollectNode(70)                         // serializing: drains, joins none
	p.Propagate(5, 6, spec, semnet.FuncNop)   // window 2
	p.Barrier()                               // COMM-END: drains
	p.Propagate(12, 13, spec, semnet.FuncNop) // window 3
	got, want := propBatches(p.Instrs), []int{0, 0, 1, 1, -1, 2, -1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windows = %v, want %v", got, want)
		}
	}

	var w Window
	in := &p.Instrs[2]
	if w.Conflicts(in) {
		t.Error("an empty window conflicts with nothing")
	}
	w.Push(&p.Instrs[0])
	if !w.Conflicts(in) || w.Conflicts(&p.Instrs[1]) || w.Len() != 1 {
		t.Error("a window of #0 conflicts with its reader #2 and not with #1")
	}
	w.Reset()
	if w.Conflicts(in) || w.Len() != 0 {
		t.Error("Reset left the window pending")
	}
}

// M3-writing ops (AND/OR) must conflict through their destination in
// every hazard direction, and NOT-MARKER through M2.
func TestIndependentM3Writes(t *testing.T) {
	and := Instruction{Op: OpAndMarker, M1: 1, M2: 2, M3: 3, Fn: semnet.FuncNop}
	raw := prop(3, 9) // reads AND's destination
	if Independent(&and, &raw) {
		t.Error("RAW through an AND destination missed")
	}
	war := prop(8, 1) // writes AND's operand
	if Independent(&and, &war) {
		t.Error("WAR against an AND operand missed")
	}
	waw := Instruction{Op: OpOrMarker, M1: 4, M2: 5, M3: 3, Fn: semnet.FuncNop}
	if Independent(&and, &waw) {
		t.Error("WAW between boolean destinations missed")
	}
	not := Instruction{Op: OpNotMarker, M1: 6, M2: 3}
	if Independent(&and, &not) {
		t.Error("NOT writes M2: WAW with the AND destination missed")
	}
	okA := Instruction{Op: OpAndMarker, M1: 4, M2: 5, M3: 6, Fn: semnet.FuncNop}
	if !Independent(&and, &okA) {
		t.Error("fully disjoint boolean ops must be independent")
	}
}
