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
	for _, m := range []semnet.MarkerID{0, 63, 64, 127} {
		s.Add(m)
	}
	for _, m := range []semnet.MarkerID{0, 63, 64, 127} {
		if !s.Contains(m) {
			t.Errorf("missing %d", m)
		}
	}
	if s.Contains(1) || s.Contains(200) {
		t.Error("spurious membership")
	}
}

// Out-of-range marker IDs must panic rather than be silently dropped:
// a dropped bit under-reports dependencies, which would let the overlap
// window (or fusion's plane renaming) reorder conflicting instructions
// without any visible failure.
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
	if s != (MarkerSet{}) {
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

// overlaps reports whether b may issue into a window that holds a: the
// machine's issue rule, where a serializing instruction drains the window
// and any other instruction joins it unless it conflicts.
func overlaps(a, b *Instruction) bool {
	if a.Serializing() || b.Serializing() {
		return false
	}
	var w Window
	w.Push(a)
	return !w.Conflicts(b)
}

func TestIndependence(t *testing.T) {
	a := prop(1, 2)
	b := prop(3, 4)
	if !overlaps(&a, &b) {
		t.Error("disjoint marker pairs must overlap")
	}
	c := prop(2, 5) // reads a's output
	if overlaps(&a, &c) {
		t.Error("read-after-write dependency missed")
	}
	d := prop(6, 2) // writes a's output
	if overlaps(&a, &d) {
		t.Error("write-after-write dependency missed")
	}
	e := prop(5, 1) // writes a's input
	if overlaps(&a, &e) {
		t.Error("write-after-read dependency missed")
	}
	coll := Instruction{Op: OpCollectNode, M1: 60}
	if overlaps(&a, &coll) {
		t.Error("retrieval serializes the window")
	}
	barrier := Instruction{Op: OpCommEnd}
	if overlaps(&a, &barrier) {
		t.Error("COMM-END serializes the window")
	}
}

func TestIndependentSymmetricQuick(t *testing.T) {
	f := func(m1, m2, m3, m4 uint8) bool {
		a := prop(semnet.MarkerID(m1%128), semnet.MarkerID(m2%128))
		b := prop(semnet.MarkerID(m3%128), semnet.MarkerID(m4%128))
		return overlaps(&a, &b) == overlaps(&b, &a)
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

// The overlap window: a PROPAGATE that reads a pending one's destination
// conflicts with it, an independent one does not, and Reset empties it.
func TestWindowFormation(t *testing.T) {
	spec := rules.Path(1)
	p := NewProgram()
	p.Propagate(1, 2, spec, semnet.FuncNop) // #0
	p.Propagate(3, 4, spec, semnet.FuncNop) // independent of #0
	p.Propagate(2, 7, spec, semnet.FuncNop) // reads #0's output

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
	if overlaps(&and, &raw) {
		t.Error("RAW through an AND destination missed")
	}
	war := prop(8, 1) // writes AND's operand
	if overlaps(&and, &war) {
		t.Error("WAR against an AND operand missed")
	}
	waw := Instruction{Op: OpOrMarker, M1: 4, M2: 5, M3: 3, Fn: semnet.FuncNop}
	if overlaps(&and, &waw) {
		t.Error("WAW between boolean destinations missed")
	}
	not := Instruction{Op: OpNotMarker, M1: 6, M2: 3}
	if overlaps(&and, &not) {
		t.Error("NOT writes M2: WAW with the AND destination missed")
	}
	okA := Instruction{Op: OpAndMarker, M1: 4, M2: 5, M3: 6, Fn: semnet.FuncNop}
	if !overlaps(&and, &okA) {
		t.Error("fully disjoint boolean ops must overlap")
	}
}
