package semnet

import (
	"fmt"
	"math/rand"
	"testing"
)

// refModel is a naive map-based reference implementation of the marker
// status and value registers; the bit-packed Store must track it exactly
// under arbitrary operation sequences.
type refModel struct {
	n      int
	status map[[2]int]bool    // (marker, local)
	value  map[[2]int]float32 // complex markers only
}

func newRefModel(n int) *refModel {
	return &refModel{n: n, status: make(map[[2]int]bool), value: make(map[[2]int]float32)}
}

func (r *refModel) set(local int, m MarkerID)   { r.status[[2]int{int(m), local}] = true }
func (r *refModel) clear(local int, m MarkerID) { delete(r.status, [2]int{int(m), local}) }
func (r *refModel) test(local int, m MarkerID) bool {
	return r.status[[2]int{int(m), local}]
}
func (r *refModel) setValue(local int, m MarkerID, v float32) {
	if m.IsComplex() {
		r.value[[2]int{int(m), local}] = v
	}
}
func (r *refModel) val(local int, m MarkerID) float32 {
	return r.value[[2]int{int(m), local}]
}

func (r *refModel) setAll(m MarkerID, v float32) {
	for i := 0; i < r.n; i++ {
		r.set(i, m)
		r.setValue(i, m, v)
	}
}

func (r *refModel) clearAll(m MarkerID) {
	for i := 0; i < r.n; i++ {
		r.clear(i, m)
	}
}

func (r *refModel) and(m1, m2, m3 MarkerID, fn FuncCode) {
	for i := 0; i < r.n; i++ {
		s := r.test(i, m1) && r.test(i, m2)
		if s {
			r.set(i, m3)
			if m3.IsComplex() {
				r.setValue(i, m3, fn.Apply(r.val(i, m1), r.val(i, m2)))
			}
		} else {
			r.clear(i, m3)
		}
	}
}

func (r *refModel) or(m1, m2, m3 MarkerID, fn FuncCode) {
	for i := 0; i < r.n; i++ {
		s1, s2 := r.test(i, m1), r.test(i, m2)
		// Read operand values before touching m3 (aliasing).
		v1, v2 := r.val(i, m1), r.val(i, m2)
		switch {
		case s1 && s2:
			r.set(i, m3)
			if m3.IsComplex() {
				r.setValue(i, m3, fn.Apply(v1, v2))
			}
		case s1:
			r.set(i, m3)
			if m3.IsComplex() {
				r.setValue(i, m3, v1)
			}
		case s2:
			r.set(i, m3)
			if m3.IsComplex() {
				r.setValue(i, m3, v2)
			}
		default:
			r.clear(i, m3)
		}
	}
}

func (r *refModel) not(m1, m2 MarkerID) {
	for i := 0; i < r.n; i++ {
		if r.test(i, m1) {
			r.clear(i, m2)
		} else {
			r.set(i, m2)
		}
	}
}

func (r *refModel) notWhere(m1, m2 MarkerID, pass func(float32) bool) {
	for i := 0; i < r.n; i++ {
		if r.test(i, m1) && pass(r.val(i, m1)) {
			r.clear(i, m2)
		} else {
			r.set(i, m2)
		}
	}
}

// searchColor takes the store's color column as given: the model has no
// node table of its own.
func (r *refModel) searchColor(s *Store, col Color, m MarkerID, v float32) {
	for i := 0; i < r.n; i++ {
		if s.Color(i) == col {
			r.set(i, m)
			r.setValue(i, m, v)
		}
	}
}

func (r *refModel) funcAll(m MarkerID, fn FuncCode, operand float32) {
	if !m.IsComplex() {
		return
	}
	for i := 0; i < r.n; i++ {
		if r.test(i, m) {
			r.setValue(i, m, fn.Apply(r.val(i, m), operand))
		}
	}
}

// TestStoreAgainstReferenceModel drives random operation sequences
// (including the aliased m3==m1 forms the parser relies on) through both
// implementations and compares full state after every step.
func TestStoreAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fns := []FuncCode{FuncNop, FuncAdd, FuncMin, FuncMax, FuncMul}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(90)
		s := NewStore(n)
		for i := 0; i < n; i++ {
			if _, err := s.AddNode(NodeID(i), Color(rng.Intn(3)), FuncNop); err != nil {
				t.Fatal(err)
			}
		}
		ref := newRefModel(n)
		markers := []MarkerID{0, 1, 2, 3, Binary(0), Binary(1)}
		mk := func() MarkerID { return markers[rng.Intn(len(markers))] }
		fn := func() FuncCode { return fns[rng.Intn(len(fns))] }

		for step := 0; step < 300; step++ {
			local := rng.Intn(n)
			switch rng.Intn(11) {
			case 0:
				m := mk()
				s.Set(local, m)
				ref.set(local, m)
			case 1:
				m := mk()
				s.Clear(local, m)
				ref.clear(local, m)
			case 2:
				m := mk()
				v := float32(rng.Intn(16))
				// Only meaningful when the marker is (or becomes) set:
				// mirror the Store semantics of an unconditional register
				// write.
				s.Set(local, m)
				s.SetValue(local, m, v, 0)
				ref.set(local, m)
				ref.setValue(local, m, v)
			case 3:
				m := mk()
				v := float32(rng.Intn(16))
				s.SetAll(m, v)
				ref.setAll(m, v)
			case 4:
				m := mk()
				s.ClearAll(m)
				ref.clearAll(m)
			case 5:
				m1, m2, m3, f := mk(), mk(), mk(), fn()
				s.And(m1, m2, m3, f)
				ref.and(m1, m2, m3, f)
			case 6:
				m1, m2, f := mk(), mk(), fn()
				// Exercise the aliased accumulate form half the time.
				m3 := mk()
				if rng.Intn(2) == 0 {
					m3 = m1
				}
				s.Or(m1, m2, m3, f)
				ref.or(m1, m2, m3, f)
			case 7:
				m1, m2 := mk(), mk()
				if m1 != m2 { // NOT with m2==m1 is not used by any caller
					s.Not(m1, m2)
					ref.not(m1, m2)
				}
			case 8:
				// m2 == m1 included: the kernel reads a word of m1 before
				// it writes that word of m2.
				m1, m2, limit := mk(), mk(), float32(rng.Intn(16))
				pass := func(v float32) bool { return v < limit }
				s.NotWhere(m1, m2, pass)
				ref.notWhere(m1, m2, pass)
			case 9:
				col, m, v := Color(rng.Intn(4)), mk(), float32(rng.Intn(16))
				s.SearchColor(col, m, v)
				ref.searchColor(s, col, m, v)
			default:
				m, f := mk(), fn()
				op := float32(rng.Intn(8))
				s.FuncAll(m, f, op)
				ref.funcAll(m, f, op)
			}
			compareModel(t, trial, step, s, ref, markers)
		}
	}
}

func compareModel(t *testing.T, trial, step int, s *Store, ref *refModel, markers []MarkerID) {
	t.Helper()
	for _, m := range markers {
		for i := 0; i < ref.n; i++ {
			if s.Test(i, m) != ref.test(i, m) {
				t.Fatalf("trial %d step %d: marker %d at %d: store=%v ref=%v",
					trial, step, m, i, s.Test(i, m), ref.test(i, m))
			}
			if m.IsComplex() && s.Test(i, m) {
				if got, want := s.Value(i, m), ref.val(i, m); got != want {
					t.Fatalf("trial %d step %d: value %d at %d: store=%v ref=%v",
						trial, step, m, i, got, want)
				}
			}
		}
	}
}

func TestStoreModelSanity(t *testing.T) {
	// The reference model itself must agree with hand truths.
	r := newRefModel(4)
	r.set(1, 0)
	r.setValue(1, 0, 5)
	r.set(1, 1)
	r.setValue(1, 1, 3)
	r.and(0, 1, 2, FuncAdd)
	if !r.test(1, 2) || r.val(1, 2) != 8 {
		t.Fatal("reference AND")
	}
	r.not(2, 3)
	if r.test(1, 3) || !r.test(0, 3) {
		t.Fatal("reference NOT")
	}
	_ = fmt.Sprint(r.n)
}
