package semnet

import (
	"fmt"
	"math/rand"
	"testing"
)

// refModel is a naive map-based reference implementation of the marker
// status bits and the value and origin registers; the bit-packed Store
// must track it exactly under arbitrary operation sequences. The model
// forgets a marker's registers when its bit is cleared, which the store
// does not: the two agree at every set bit only if every kernel that
// sets a bit also writes both registers — from an operand where there is
// one, else what a fresh machine holds (value 0, origin 0).
type refModel struct {
	n      int
	status map[[2]int]bool // (marker, local)
	regs   map[[2]int]reg  // complex markers only
}

type reg struct {
	value  float32
	origin NodeID
}

func newRefModel(n int) *refModel {
	return &refModel{n: n, status: make(map[[2]int]bool), regs: make(map[[2]int]reg)}
}

func (r *refModel) set(local int, m MarkerID) { r.status[[2]int{int(m), local}] = true }
func (r *refModel) clear(local int, m MarkerID) {
	delete(r.status, [2]int{int(m), local})
	delete(r.regs, [2]int{int(m), local})
}
func (r *refModel) test(local int, m MarkerID) bool {
	return r.status[[2]int{int(m), local}]
}
func (r *refModel) setReg(local int, m MarkerID, v float32, origin NodeID) {
	if m.IsComplex() {
		r.regs[[2]int{int(m), local}] = reg{v, origin}
	}
}
func (r *refModel) val(local int, m MarkerID) float32 {
	return r.regs[[2]int{int(m), local}].value
}
func (r *refModel) origin(local int, m MarkerID) NodeID {
	return r.regs[[2]int{int(m), local}].origin
}

func (r *refModel) setAll(m MarkerID, v float32) {
	for i := 0; i < r.n; i++ {
		r.set(i, m)
		r.setReg(i, m, v, 0)
	}
}

func (r *refModel) clearAll(m MarkerID) {
	for i := 0; i < r.n; i++ {
		r.clear(i, m)
	}
}

func (r *refModel) boolean(or bool, m1, m2, m3 MarkerID, fn FuncCode) {
	for i := 0; i < r.n; i++ {
		s1, s2 := r.test(i, m1), r.test(i, m2)
		// Read the operand registers before touching m3 (aliasing).
		v1, v2 := r.val(i, m1), r.val(i, m2)
		o1, o2 := r.origin(i, m1), r.origin(i, m2)
		if !(s1 && s2) && !(or && (s1 || s2)) {
			r.clear(i, m3)
			continue
		}
		v := v2
		switch {
		case s1 && s2:
			v = fn.Apply(v1, v2)
		case s1:
			v = v1
		}
		// The first set complex operand names the origin; two binary
		// operands have none to give.
		var o NodeID
		switch {
		case s1 && m1.IsComplex():
			o = o1
		case s2 && m2.IsComplex():
			o = o2
		}
		r.set(i, m3)
		r.setReg(i, m3, v, o)
	}
}

func (r *refModel) not(m1, m2 MarkerID) {
	r.notWhere(m1, m2, func(float32) bool { return true })
}

func (r *refModel) notWhere(m1, m2 MarkerID, pass func(float32) bool) {
	for i := 0; i < r.n; i++ {
		if r.test(i, m1) && pass(r.val(i, m1)) {
			r.clear(i, m2)
		} else {
			r.set(i, m2)
			r.setReg(i, m2, 0, 0)
		}
	}
}

// searchColor takes the store's color and global-ID columns as given: the
// model has no node table of its own.
func (r *refModel) searchColor(s *Store, col Color, m MarkerID, v float32) {
	for i := 0; i < r.n; i++ {
		if s.Color(i) == col {
			r.set(i, m)
			r.setReg(i, m, v, s.Global(i))
		}
	}
}

func (r *refModel) funcAll(m MarkerID, fn FuncCode, operand float32) {
	if !m.IsComplex() {
		return
	}
	for i := 0; i < r.n; i++ {
		if r.test(i, m) {
			r.setReg(i, m, fn.Apply(r.val(i, m), operand), r.origin(i, m))
		}
	}
}

// TestTableAgainstReferenceModel drives random operation sequences
// (including the aliased m3==m1 forms the parser relies on) through a
// table and one model per window, and compares full state after every
// step: a lone window of 1–90 nodes, and the machine's sixteen — at
// capacity 130 with node counts on the host-word edges, and at capacity
// 40, where a window is one host word and eight share a cache line. Every
// whole-row kernel must equal the model applied window by window, and
// every per-store operation must leave the other windows alone.
func TestTableAgainstReferenceModel(t *testing.T) {
	t.Run("windows1", func(t *testing.T) {
		rng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(90)
			driveModel(t, rng, trial, n, []int{n})
		}
	})
	for _, tc := range []struct {
		name     string
		capacity int
		edges    []int
	}{
		{"windows16", 130, []int{0, 1, 63, 64, 65, 130}},
		{"windows16-window40", 40, []int{0, 1, 39, 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(78))
			for trial := 0; trial < 8; trial++ {
				counts := make([]int, 16)
				for c := range counts {
					counts[c] = tc.edges[rng.Intn(len(tc.edges))]
				}
				driveModel(t, rng, trial, tc.capacity, counts)
			}
		})
	}
}

// driveModel builds a table with counts[c] nodes in window c, dirties
// every register, clears, and then runs 300 random operations against one
// model per window: the whole-row kernels machine-wide through the Table,
// everything a store does itself at one window picked per step.
func driveModel(t *testing.T, rng *rand.Rand, trial, capacity int, counts []int) {
	t.Helper()
	fns := []FuncCode{FuncNop, FuncAdd, FuncMin, FuncMax, FuncMul}
	markers := []MarkerID{0, 1, 2, 3, Binary(0), Binary(1)}
	mk := func() MarkerID { return markers[rng.Intn(len(markers))] }
	fn := func() FuncCode { return fns[rng.Intn(len(fns))] }

	tab := NewTable(len(counts), capacity)
	refs := make([]*refModel, len(counts))
	total := 0
	for c, n := range counts {
		s := tab.Store(c)
		for i := 0; i < n; i++ {
			if _, err := s.AddNode(NodeID(total+i), Color(rng.Intn(3)), FuncNop); err != nil {
				t.Fatal(err)
			}
		}
		total += n
		refs[c] = newRefModel(n)
		// The dirtying pass: an earlier query's bits and registers at
		// every node, then the between-queries reset.
		for _, m := range markers {
			for i := 0; i < n; i++ {
				s.Set(i, m)
				s.SetValue(i, m, float32(1+rng.Intn(16)), NodeID(1+rng.Intn(1000)))
			}
		}
	}
	if rows := tab.ClearRows(^uint64(0), ^uint64(0)); rows != NumMarkers {
		t.Fatalf("full ClearRows = %d rows", rows)
	}
	all := func(f func(r *refModel)) {
		for _, r := range refs {
			f(r)
		}
	}

	for step := 0; step < 300; step++ {
		c := rng.Intn(len(counts))
		s, ref := tab.Store(c), refs[c]
		switch op := rng.Intn(12); {
		case op < 3 && s.NumNodes() == 0:
			// A per-node operation and no node to apply it to.
		case op == 0:
			// The newly-set signal decides the register write, as in the
			// propagation engine.
			local, m := rng.Intn(s.NumNodes()), mk()
			if s.Set(local, m) {
				s.SetValue(local, m, 0, 0)
			}
			if !ref.test(local, m) {
				ref.setReg(local, m, 0, 0)
			}
			ref.set(local, m)
		case op == 1:
			local, m := rng.Intn(s.NumNodes()), mk()
			s.unset(local, m)
			ref.clear(local, m)
		case op == 2:
			local, m := rng.Intn(s.NumNodes()), mk()
			v, o := float32(rng.Intn(16)), NodeID(rng.Intn(1000))
			s.Set(local, m)
			s.SetValue(local, m, v, o)
			ref.set(local, m)
			ref.setReg(local, m, v, o)
		case op == 3:
			m, v := mk(), float32(rng.Intn(16))
			tab.SetAll(m, v)
			all(func(r *refModel) { r.setAll(m, v) })
		case op == 4:
			m := mk()
			tab.ClearAll(m)
			all(func(r *refModel) { r.clearAll(m) })
		case op == 5 || op == 6:
			// Every aliasing: m3 free, m3 == m1 (the accumulate form),
			// m3 == m2.
			m1, m2, f := mk(), mk(), fn()
			m3 := []MarkerID{mk(), m1, m2}[rng.Intn(3)]
			if op == 5 {
				tab.And(m1, m2, m3, f)
			} else {
				tab.Or(m1, m2, m3, f)
			}
			all(func(r *refModel) { r.boolean(op == 6, m1, m2, m3, f) })
		case op == 7:
			m1, m2 := mk(), mk()
			if m1 == m2 { // NOT with m2==m1 is not used by any caller
				break
			}
			tab.Not(m1, m2)
			all(func(r *refModel) { r.not(m1, m2) })
		case op == 8:
			// m2 == m1 included: the kernel reads a word of m1 before
			// it writes that word of m2.
			m1, m2, limit := mk(), mk(), float32(rng.Intn(16))
			pass := func(v float32) bool { return v < limit }
			s.NotWhere(m1, m2, pass)
			ref.notWhere(m1, m2, pass)
		case op == 9:
			col, m, v := Color(rng.Intn(4)), mk(), float32(rng.Intn(16))
			s.SearchColor(col, m, v)
			ref.searchColor(s, col, m, v)
		case op == 10:
			m, f, operand := mk(), fn(), float32(rng.Intn(8))
			s.FuncAll(m, f, operand)
			ref.funcAll(m, f, operand)
		default:
			// The masked reset: two of the six markers.
			a, b := mk(), mk()
			var mask [2]uint64
			for _, m := range []MarkerID{a, b} {
				mask[m/64] |= 1 << (m % 64)
			}
			tab.ClearRows(mask[0], mask[1])
			all(func(r *refModel) { r.clearAll(a); r.clearAll(b) })
		}
		compareModel(t, trial, step, tab, refs, markers, total)
	}
}

// compareModel holds every window to its model — bits, the registers of
// set complex bits, zero tails up to capacity — and the table's
// machine-wide reads (CountSet, Project) to the sum of the models.
func compareModel(t *testing.T, trial, step int, tab *Table, refs []*refModel, markers []MarkerID, total int) {
	t.Helper()
	for _, m := range markers {
		count := 0
		want := make([]uint64, (total+HostWordBits-1)/HostWordBits)
		for c, ref := range refs {
			s := tab.Store(c)
			for i := 0; i < s.capacity; i++ {
				if s.Test(i, m) != ref.test(i, m) {
					t.Fatalf("trial %d step %d: window %d marker %d at %d: store=%v ref=%v",
						trial, step, c, m, i, s.Test(i, m), ref.test(i, m))
				}
				if !s.Test(i, m) {
					continue
				}
				count++
				g := s.Global(i)
				want[g/HostWordBits] |= 1 << (g % HostWordBits)
				if got, want := (reg{s.Value(i, m), s.Origin(i, m)}), (reg{ref.val(i, m), ref.origin(i, m)}); got != want {
					t.Fatalf("trial %d step %d: window %d marker %d at %d: store registers %v, ref %v",
						trial, step, c, m, i, got, want)
				}
			}
		}
		if got := tab.CountSet(m); got != count {
			t.Fatalf("trial %d step %d: marker %d: table CountSet %d, want %d", trial, step, m, got, count)
		}
		got := make([]uint64, len(want))
		if n := tab.Project(m, got); n != count {
			t.Fatalf("trial %d step %d: marker %d: Project counted %d, want %d", trial, step, m, n, count)
		}
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("trial %d step %d: marker %d: Project word %d = %#x, want %#x", trial, step, m, w, got[w], want[w])
			}
		}
	}
}

func TestStoreModelSanity(t *testing.T) {
	// The reference model itself must agree with hand truths.
	r := newRefModel(4)
	r.set(1, 0)
	r.setReg(1, 0, 5, 7)
	r.set(1, 1)
	r.setReg(1, 1, 3, 9)
	r.boolean(false, 0, 1, 2, FuncAdd)
	if !r.test(1, 2) || r.val(1, 2) != 8 || r.origin(1, 2) != 7 {
		t.Fatal("reference AND")
	}
	r.not(2, 3)
	if r.test(1, 3) || !r.test(0, 3) {
		t.Fatal("reference NOT")
	}
	_ = fmt.Sprint(r.n)
}
