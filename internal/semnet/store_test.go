package semnet

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// newStore returns a full store of n nodes (colors i%7) with the table
// of one window it is bound to: the whole-row kernels are the table's.
func newStore(t *testing.T, n int) (*Table, *Store) {
	t.Helper()
	tab := NewTable(1, n)
	s := tab.Store(0)
	for i := 0; i < n; i++ {
		if _, err := s.AddNode(NodeID(i), Color(i%7), FuncAdd); err != nil {
			t.Fatal(err)
		}
	}
	return tab, s
}

func TestStoreBasics(t *testing.T) {
	_, s := newStore(t, 70) // crosses two status words + partial third
	if s.NumNodes() != 70 || s.capacity != 70 {
		t.Fatal("size bookkeeping")
	}
	if s.Words() != 3 {
		t.Fatalf("Words() = %d, want 3", s.Words())
	}
	if s.Global(5) != NodeID(5) || s.Color(5) != Color(5) || s.Fn(5) != FuncAdd {
		t.Fatal("node table round trip")
	}
	if _, err := s.AddNode(NodeID(99), 0, FuncNop); !errors.Is(err, ErrCapacity) {
		t.Fatalf("overfill: %v", err)
	}
}

func TestStoreMarkerBits(t *testing.T) {
	tab, s := newStore(t, 70)
	m := MarkerID(3)
	if !s.Set(33, m) {
		t.Error("first Set must report newly-set")
	}
	if s.Set(33, m) {
		t.Error("second Set must report already-set")
	}
	if !s.Test(33, m) || s.Test(34, m) {
		t.Error("Test after Set")
	}
	if got := tab.CountSet(m); got != 1 {
		t.Errorf("CountSet = %d", got)
	}
	s.unset(33, m)
	if s.Test(33, m) || tab.CountSet(m) != 0 {
		t.Error("unset failed")
	}
}

func TestStoreValueRegisters(t *testing.T) {
	_, s := newStore(t, 40)
	m := MarkerID(1)
	s.Set(7, m)
	s.SetValue(7, m, 2.5, NodeID(3))
	if s.Value(7, m) != 2.5 || s.Origin(7, m) != NodeID(3) {
		t.Fatal("value/origin registers")
	}
	// Binary markers have no registers.
	b := Binary(0)
	s.SetValue(7, b, 9, NodeID(1))
	if s.Value(7, b) != 0 || s.Origin(7, b) != 0 {
		t.Error("binary markers must not store values")
	}
}

// TestRegisterBlocksFollowWrites fences the register layout: a complex
// marker's registers exist only in the lanes a kernel wrote, packed into
// one block per host status word, the store's index holds a row of blocks
// only for the markers written, a missing lane, block or row reads as a
// fresh machine's, and a block once allocated loses its lanes but is never
// freed, so a warmed store runs its kernels without allocating.
func TestRegisterBlocksFollowWrites(t *testing.T) {
	const n = 200 // four host words of a 1024-node window
	tab := NewTable(1, 1024)
	s := tab.Store(0)
	for i := 0; i < n; i++ {
		if _, err := s.AddNode(NodeID(i), Color(i%7), FuncAdd); err != nil {
			t.Fatal(err)
		}
	}
	// census reports how many blocks complex marker m holds and how many
	// lanes they hold between them.
	census := func(m MarkerID) (blocks, lanes int) {
		for _, r := range s.markerBlocks(m) {
			if r != nil {
				if len(r.r) != bits.OnesCount64(r.mask) {
					t.Fatalf("marker %d: a block holds %d entries behind a mask of %d lanes", m, len(r.r), bits.OnesCount64(r.mask))
				}
				blocks++
				lanes += len(r.r)
			}
		}
		return blocks, lanes
	}
	total := func() (blocks, lanes int) {
		for m := MarkerID(0); m < NumComplexMarkers; m++ {
			b, l := census(m)
			blocks, lanes = blocks+b, lanes+l
		}
		return blocks, lanes
	}
	fresh := func(m MarkerID) {
		t.Helper()
		for i := 0; i < n; i++ {
			if s.Value(i, m) != 0 || s.Origin(i, m) != 0 {
				t.Fatalf("marker %d node %d: value %v origin %d, want a fresh machine's", m, i, s.Value(i, m), s.Origin(i, m))
			}
		}
	}

	// rows reports how many complex markers have a row of blocks.
	rows := func() int {
		n := 0
		for _, row := range s.regs {
			if row != nil {
				if len(row) != len(s.valid) {
					t.Fatalf("a row of %d blocks for %d host words", len(row), len(s.valid))
				}
				n++
			}
		}
		return n
	}

	cm, bm := MarkerID(1), Binary(0)
	if s.Value(70, cm) != 0 || s.regs != nil {
		t.Fatal("a store no program wrote a register of holds an index, or reads one")
	}
	s.SetValue(70, cm, 2.5, 9)
	if blocks, lanes := total(); blocks != 1 || lanes != 1 || rows() != 1 {
		t.Fatalf("one SetValue holds %d blocks and %d lanes in %d rows, want 1, 1 and 1", blocks, lanes, rows())
	}
	if s.Value(70, cm) != 2.5 || s.Origin(70, cm) != 9 || s.Value(71, cm) != 0 || s.Value(7, cm) != 0 {
		t.Fatal("registers of the written lane, or of a missing one, read wrong")
	}

	s.SetValue(70, bm, 9, 1)
	tab.SetAll(bm, 4)
	s.SearchColor(3, bm, 5)
	if blocks, lanes := total(); blocks != 1 || lanes != 1 || rows() != 1 {
		t.Fatalf("a binary marker allocated %d blocks, %d lanes and %d rows", blocks-1, lanes-1, rows()-1)
	}
	if s.Value(70, bm) != 0 || s.Origin(70, bm) != 0 {
		t.Fatal("binary marker reads a register")
	}

	sm := MarkerID(2)
	tab.SetAll(sm, 1.5)
	if blocks, lanes := census(sm); blocks != (n+HostWordBits-1)/HostWordBits || lanes != n {
		t.Fatalf("SetAll on %d nodes holds %d blocks and %d lanes, want %d and %d", n, blocks, lanes, (n+HostWordBits-1)/HostWordBits, n)
	}
	if rows() != 2 {
		t.Fatalf("two markers written hold %d rows, want 2", rows())
	}

	// Not, NotWhere and zeroRegisters leave the marker no lanes, so its
	// registers read fresh, and keep every block.
	tab.Not(bm, sm)
	if _, lanes := census(sm); lanes != 0 {
		t.Fatalf("Not leaves marker %d %d lanes, want 0", sm, lanes)
	}
	fresh(sm)
	s.NotWhere(bm, cm, func(float32) bool { return true })
	if _, lanes := census(cm); lanes != 0 {
		t.Fatalf("NotWhere leaves marker %d %d lanes, want 0", cm, lanes)
	}
	fresh(cm)
	tab.SetAll(sm, 3)
	s.zeroRegisters(sm)
	fresh(sm)
	if cb, _ := census(cm); cb != 1 {
		t.Fatalf("clearing freed blocks: marker %d holds %d, want 1", cm, cb)
	}
	if sb, _ := census(sm); sb != 4 {
		t.Fatalf("clearing freed blocks: marker %d holds %d, want 4", sm, sb)
	}

	// Every register-writing kernel, on a warmed store, rewrites the same
	// lanes without allocating.
	seq := func() {
		tab.SetAll(sm, 2)
		s.SetValue(130, cm, 1, 4)
		s.SearchColor(5, cm, 3)
		tab.Or(sm, cm, 3, FuncMin)
		tab.And(sm, 3, 4, FuncAdd)
		s.FuncAll(4, FuncMul, 2)
		tab.Not(bm, cm)
		s.NotWhere(4, 3, func(v float32) bool { return v > 1 })
	}
	seq()
	if rows() != 4 {
		t.Fatalf("four markers written hold %d rows, want 4", rows())
	}
	warmBlocks, warmLanes := total()
	if a := testing.AllocsPerRun(20, seq); a != 0 {
		t.Errorf("kernels on a warmed store allocate %v times per sequence, want 0", a)
	}
	if blocks, lanes := total(); blocks != warmBlocks || lanes != warmLanes || rows() != 4 {
		t.Errorf("repeating the sequence moved the census from %d blocks and %d lanes in 4 rows to %d, %d and %d", warmBlocks, warmLanes, blocks, lanes, rows())
	}
}

func TestSetAllClearAll(t *testing.T) {
	tab, s := newStore(t, 70)
	m := MarkerID(2)
	tab.SetAll(m, 1.5)
	if tab.CountSet(m) != 70 {
		t.Fatalf("SetAll count = %d", tab.CountSet(m))
	}
	for i := 0; i < 70; i++ {
		if s.Value(i, m) != 1.5 {
			t.Fatalf("value at %d = %v", i, s.Value(i, m))
		}
	}
	tab.ClearAll(m)
	if tab.CountSet(m) != 0 {
		t.Error("ClearAll")
	}
}

func TestNotMasksTail(t *testing.T) {
	tab, s := newStore(t, 70)
	m1, m2 := MarkerID(0), MarkerID(1)
	s.Set(0, m1)
	tab.Not(m1, m2)
	// NOT of a single set bit over 70 nodes: 69 set, and crucially no
	// phantom bits beyond node 69 in the partial third word.
	if got := tab.CountSet(m2); got != 69 {
		t.Fatalf("NOT count = %d, want 69", got)
	}
}

// The two sweeps the machine's SIMD phase hands to the store whole. The
// reference-model test covers their bits and values; this pins what the
// model does not see: origins, the tail mask, binary markers and the word
// counts the timing model charges.
func TestSearchColorAndNotWhere(t *testing.T) {
	tab, s := newStore(t, 70) // colors i%7: ten nodes of each
	cm, bm, out := MarkerID(1), Binary(0), MarkerID(2)
	s.SearchColor(3, cm, 2.5)
	s.SearchColor(3, bm, 9) // binary: bits only, no registers to allocate
	for i := 0; i < 70; i++ {
		hit := i%7 == 3
		if s.Test(i, cm) != hit || s.Test(i, bm) != hit {
			t.Fatalf("node %d (color %d): complex %v binary %v, want %v", i, i%7, s.Test(i, cm), s.Test(i, bm), hit)
		}
		if hit && (s.Value(i, cm) != 2.5 || s.Origin(i, cm) != s.Global(i)) {
			t.Fatalf("node %d: value %v origin %d, want 2.5 and the node itself", i, s.Value(i, cm), s.Origin(i, cm))
		}
	}
	s.SearchColor(200, cm, 1) // no node has it: nothing changes
	if got := tab.CountSet(cm); got != 10 {
		t.Fatalf("after a search that matches nothing: %d set, want 10", got)
	}

	// Half the hits keep a passing value; m2 = everything else, and no
	// phantom bits beyond node 69 in the partial second host word.
	for i := 3; i < 35; i += 7 {
		s.SetValue(i, cm, 7, 0)
	}
	if got := s.NotWhere(cm, out, func(v float32) bool { return v < 5 }); got != s.Words() {
		t.Fatalf("NotWhere charged %d words, want %d", got, s.Words())
	}
	if got := tab.CountSet(out); got != 65 {
		t.Fatalf("NotWhere count = %d, want 65", got)
	}
	// A binary m1 has no value registers: its set bits all test value 0.
	s.NotWhere(bm, out, func(v float32) bool { return v == 0 })
	if got := tab.CountSet(out); got != 60 {
		t.Fatalf("NotWhere over a binary marker: %d set, want 60", got)
	}
}

func TestAndOrValues(t *testing.T) {
	tab, s := newStore(t, 64)
	a, b, out := MarkerID(0), MarkerID(1), MarkerID(2)
	s.Set(5, a)
	s.SetValue(5, a, 3, NodeID(50))
	s.Set(5, b)
	s.SetValue(5, b, 4, NodeID(51))
	s.Set(9, a)
	s.SetValue(9, a, 7, NodeID(52))

	tab.And(a, b, out, FuncAdd)
	if tab.CountSet(out) != 1 || !s.Test(5, out) {
		t.Fatal("AND bits")
	}
	if s.Value(5, out) != 7 {
		t.Errorf("AND value = %v, want 3+4", s.Value(5, out))
	}
	if s.Origin(5, out) != NodeID(50) {
		t.Errorf("AND origin = %v, want m1's", s.Origin(5, out))
	}

	tab.Or(a, b, out, FuncAdd)
	if tab.CountSet(out) != 2 {
		t.Fatal("OR bits")
	}
	if s.Value(9, out) != 7 {
		t.Errorf("OR value at 9 = %v (only m1 set: stale m2 register must not leak)", s.Value(9, out))
	}
}

// The critical aliasing case: OR accumulating into its own first operand
// must not resurrect stale value registers of cleared markers.
func TestOrAliasingNoStaleValues(t *testing.T) {
	tab, s := newStore(t, 32)
	acc, x := MarkerID(0), MarkerID(1)
	// Pollute acc's register at node 3, then clear it.
	s.Set(3, acc)
	s.SetValue(3, acc, 100, 0)
	tab.ClearAll(acc)

	s.Set(3, x)
	s.SetValue(3, x, 2, 0)
	tab.Or(acc, x, acc, FuncAdd) // acc |= x, values accumulate
	if got := s.Value(3, acc); got != 2 {
		t.Fatalf("aliased OR value = %v, want 2 (stale 100 leaked)", got)
	}
	// Second accumulation now legitimately adds.
	tab.Or(acc, x, acc, FuncAdd)
	if got := s.Value(3, acc); got != 4 {
		t.Fatalf("second aliased OR = %v, want 4", got)
	}
}

func TestFuncAll(t *testing.T) {
	_, s := newStore(t, 40)
	m := MarkerID(0)
	s.Set(3, m)
	s.SetValue(3, m, 10, 0)
	s.Set(20, m)
	s.SetValue(20, m, 1, 0)
	s.FuncAll(m, FuncAdd, 5)
	if s.Value(3, m) != 15 || s.Value(20, m) != 6 {
		t.Fatalf("FuncAll: %v, %v", s.Value(3, m), s.Value(20, m))
	}
	// Binary marker: no-op but still sweeps.
	if words := s.FuncAll(Binary(0), FuncAdd, 5); words != s.Words() {
		t.Error("FuncAll word count")
	}
}

func TestForEachSetAscending(t *testing.T) {
	_, s := newStore(t, 100)
	m := MarkerID(4)
	want := []int{0, 31, 32, 33, 64, 99}
	for _, i := range want {
		s.Set(i, m)
	}
	var got []int
	s.ForEachSet(m, func(local int) { got = append(got, local) })
	if len(got) != len(want) {
		t.Fatalf("ForEachSet visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEachSet order %v, want %v", got, want)
		}
	}
}

func TestStoreMutations(t *testing.T) {
	_, s := newStore(t, 8)
	l := Link{Rel: 4, Weight: 1, To: NodeID(2)}
	if err := s.AddLink(1, l); err != nil {
		t.Fatal(err)
	}
	if len(s.Links(1)) != 1 {
		t.Fatal("AddLink")
	}
	if !s.RemoveLink(1, 4, NodeID(2)) {
		t.Fatal("RemoveLink should find the link")
	}
	if s.RemoveLink(1, 4, NodeID(2)) {
		t.Fatal("RemoveLink should report missing")
	}
	for i := 0; i < RelationSlots; i++ {
		if err := s.AddLink(1, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddLink(1, l); !errors.Is(err, ErrCapacity) {
		t.Fatalf("slot overflow: %v", err)
	}
	if err := s.SetColor(1, Color(9)); err != nil || s.Color(1) != Color(9) {
		t.Fatal("SetColor")
	}
	if err := s.SetColor(99, 0); err == nil {
		t.Fatal("SetColor out of range must fail")
	}
}

// Word-level bit scanning (CountSet, ForEachSet) must agree with per-node
// Test over arbitrary marker patterns.
func TestBitScanQuick(t *testing.T) {
	f := func(pattern uint64, span uint8) bool {
		n := 1 + int(span)%100
		tab := NewTable(1, n)
		s := tab.Store(0)
		for i := 0; i < n; i++ {
			if _, err := s.AddNode(NodeID(i), 0, FuncNop); err != nil {
				return false
			}
			if pattern&(1<<(uint(i)%64)) != 0 {
				s.Set(i, 0)
			}
		}
		want := 0
		for i := 0; i < n; i++ {
			if s.Test(i, 0) {
				want++
			}
		}
		got := 0
		prev := -1
		s.ForEachSet(0, func(local int) {
			if local <= prev || !s.Test(local, 0) {
				got = -1 << 30 // order or membership violation
			}
			prev = local
			got++
		})
		return tab.CountSet(0) == want && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Boolean table ops must match a per-bit reference model on random state.
func TestBooleanOpsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(130)
		tab, s := newStore(t, n)
		a, b, out := MarkerID(0), MarkerID(1), MarkerID(2)
		ref := make(map[int][2]bool)
		for i := 0; i < n; i++ {
			sa, sb := rng.Intn(2) == 1, rng.Intn(2) == 1
			if sa {
				s.Set(i, a)
			}
			if sb {
				s.Set(i, b)
			}
			ref[i] = [2]bool{sa, sb}
		}
		tab.And(a, b, out, FuncNop)
		for i := 0; i < n; i++ {
			if s.Test(i, out) != (ref[i][0] && ref[i][1]) {
				t.Fatalf("AND mismatch at %d", i)
			}
		}
		tab.Or(a, b, out, FuncNop)
		for i := 0; i < n; i++ {
			if s.Test(i, out) != (ref[i][0] || ref[i][1]) {
				t.Fatalf("OR mismatch at %d", i)
			}
		}
		tab.Not(a, out)
		for i := 0; i < n; i++ {
			if s.Test(i, out) != !ref[i][0] {
				t.Fatalf("NOT mismatch at %d", i)
			}
		}
	}
}

func TestClearRowsMasked(t *testing.T) {
	tab, s := newStore(t, 70)
	for _, m := range []MarkerID{0, 5, 63, Binary(0), Binary(7)} {
		s.Set(13, m)
		s.Set(69, m)
	}
	// Clear complex 5 and binary 7 only.
	if rows := tab.ClearRows(1<<5, 1<<7); rows != 2 {
		t.Fatalf("ClearRows = %d rows, want 2", rows)
	}
	for _, m := range []MarkerID{5, Binary(7)} {
		if s.Test(13, m) || s.Test(69, m) {
			t.Fatalf("marker %d not cleared", m)
		}
	}
	for _, m := range []MarkerID{0, 63, Binary(0)} {
		if !s.Test(13, m) || !s.Test(69, m) {
			t.Fatalf("marker %d spuriously cleared", m)
		}
	}
	// The full mask clears every row.
	if rows := tab.ClearRows(^uint64(0), ^uint64(0)); rows != NumMarkers {
		t.Fatalf("full ClearRows = %d rows", rows)
	}
	for _, m := range []MarkerID{0, 63, Binary(0)} {
		if tab.CountSet(m) != 0 {
			t.Fatalf("marker %d survives full clear", m)
		}
	}
}

// TestStoreKernelAllocs fences the kernels the SIMD phase and the
// frontier scan are built from at exactly zero allocations per call, on a
// table of one window and on a machine's sixteen, every window a full
// 1024-node cluster partition: complex markers 0 and 1 at every third and
// every second node, binary 0 dense, binary 1 at every 97th node, four
// CSR links per node.
func TestStoreKernelAllocs(t *testing.T) {
	const n = 1024
	for _, windows := range []int{1, 16} {
		tab := NewTable(windows, n)
		links := make([]Link, 4)
		for c := 0; c < windows; c++ {
			s := tab.Store(c)
			for i := 0; i < n; i++ {
				if _, err := s.AddNode(NodeID(c*n+i), Color(i%7), FuncAdd); err != nil {
					t.Fatal(err)
				}
				if i%3 == 0 {
					s.Set(i, 0)
				}
				if i%2 == 0 {
					s.Set(i, 1)
				}
				s.Set(i, Binary(0))
				if i%97 == 0 {
					s.Set(i, Binary(1))
				}
				for j := range links {
					links[j] = Link{Rel: RelType(j), Weight: 1, To: NodeID((i + j + 1) % n)}
				}
				if err := s.SetLinks(i, links); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := tab.Store(windows - 1)
		count := 0
		projected := make([]uint64, windows*n/HostWordBits)
		for _, k := range []struct {
			name string
			op   func()
		}{
			{"and", func() { tab.And(0, 1, 2, FuncNop) }},
			{"and/binary", func() { tab.And(Binary(0), Binary(1), Binary(2), FuncNop) }},
			{"or", func() { tab.Or(0, 1, 2, FuncNop) }},
			{"not", func() { tab.Not(0, 2) }},
			{"set_all", func() { tab.SetAll(3, 1) }},
			{"clear_all", func() { tab.ClearAll(3) }},
			{"clear_rows", func() { tab.ClearRows(1<<3, 1<<9) }},
			{"count_set", func() { count += tab.CountSet(0) }},
			{"project", func() { count += tab.Project(Binary(1), projected) }},
			{"foreach_set/sparse", func() { s.ForEachSet(Binary(1), func(local int) { count += local }) }},
			{"foreach_set/dense", func() { s.ForEachSet(Binary(0), func(local int) { count += local }) }},
			{"csr_scan", func() {
				for local := 0; local < s.NumNodes(); local++ {
					for _, l := range s.Links(local) {
						count += int(l.To)
					}
				}
			}},
		} {
			if a := testing.AllocsPerRun(100, k.op); a != 0 {
				t.Errorf("%d windows: %s allocates %v times per call, want 0", windows, k.name, a)
			}
		}
		if count == 0 {
			t.Errorf("%d windows: the scans visited nothing", windows)
		}
	}
}
