package semnet

import "math/bits"

// Table is one machine's marker status table: one bit per marker per node
// for every cluster of the array, in a single marker-major slab. Plane m
// (all of marker m's bits, machine-wide) is contiguous, and cluster c's
// part of it — its window — is rowWords host words at offset c·rowWords
// inside the plane. Windows are sized by store capacity, so they never
// move, and whole host words, so two clusters never share one: a cluster
// may write its own windows while its neighbours write theirs.
//
// The layout is what lets a broadcast instruction be one sweep. The
// array executes AND/OR/NOT/SET/CLEAR-MARKER on every cluster's status
// table at once; with the planes contiguous the host does the same, in
// one pass over up to three planes, instead of visiting each cluster's
// store in turn. Those kernels are Table methods over whole planes and
// exist nowhere else; what a store sweeps itself (SearchColor, NotWhere,
// FuncAll, ForEachSet) consults its own node table or registers per node.
//
// Bits at or beyond a window's node count are always zero. AND, OR and
// CLEAR keep that by construction; NOT and SET, which turn bits on, mask
// with the valid plane.
type Table struct {
	stores   []*Store // stores[c] owns window c
	rowWords int      // host words per window
	slab     []uint64 // NumMarkers planes of len(stores)*rowWords words
	valid    []uint64 // one more plane: the bits below each window's node count
}

// NewTable returns the status table of a machine of the given number of
// clusters, with one empty store of the given node capacity per window.
func NewTable(windows, capacity int) *Table {
	t := newTable(windows, capacity)
	for c := range t.stores {
		t.bind(c, emptyStore(capacity))
	}
	return t
}

// newTable allocates a cleared table whose windows have no stores yet.
// Planes and the valid plane are one allocation.
func newTable(windows, capacity int) *Table {
	t := &Table{
		stores:   make([]*Store, windows),
		rowWords: (capacity + HostWordBits - 1) / HostWordBits,
	}
	planes := NumMarkers * windows * t.rowWords
	buf := make([]uint64, planes+windows*t.rowWords)
	t.slab, t.valid = buf[:planes:planes], buf[planes:]
	return t
}

// bind makes s the owner of window c: its status rows become views of
// the window, capped so an append cannot reach the next one, and the
// valid plane takes its node count.
func (t *Table) bind(c int, s *Store) {
	t.stores[c] = s
	lo, hi := c*t.rowWords, (c+1)*t.rowWords
	for m := range s.status {
		s.status[m] = t.plane(MarkerID(m))[lo:hi:hi]
	}
	s.valid = t.valid[lo:hi:hi]
	s.fillValid()
}

// fillValid sets the valid words to the bits below the node count.
func (s *Store) fillValid() {
	clear(s.valid)
	for w := range s.valid[:s.n/HostWordBits] {
		s.valid[w] = ^uint64(0)
	}
	if r := uint(s.n % HostWordBits); r != 0 {
		s.valid[s.n/HostWordBits] = 1<<r - 1
	}
}

// Store returns the store owning window c.
func (t *Table) Store(c int) *Store { return t.stores[c] }

// Topology is a table's node and relation tables, window by window, as
// Share froze them: the one way a loaded network is shared. Nothing
// writes the tables it holds, so any number of tables may read them.
type Topology []storeTopo

// Share freezes t's node and relation tables into a Topology, copying
// nothing: every store is marked shared, so its next topology mutation
// copies its tables first — all but the base slab of links, which no
// mutator writes — and the Topology keeps the ones it took.
func (t *Table) Share() Topology {
	tp := make(Topology, len(t.stores))
	for c, s := range t.stores {
		tp[c] = s.share()
	}
	return tp
}

// NewSharedTable returns a table of fresh (cleared) marker state whose
// stores read tp's tables copy-on-write: a query-serving pool's replica
// costs O(markers), not O(nodes + links).
func NewSharedTable(tp Topology) *Table {
	t := newTable(len(tp), tp[0].capacity)
	for c := range tp {
		s := new(Store)
		s.adopt(tp[c])
		t.bind(c, s)
	}
	return t
}

// Adopt makes tp t's node and relation tables in place, window by
// window, shared copy-on-write. Marker state stays: the status views
// are fixed by capacity, and only a window whose node count changed has
// its valid words rewritten. tp must come from a table of t's shape.
func (t *Table) Adopt(tp Topology) {
	if len(tp) != len(t.stores) || tp[0].capacity != t.stores[0].capacity {
		panic("semnet: adopt a topology of another table shape")
	}
	for c, s := range t.stores {
		n := s.n
		s.adopt(tp[c])
		if s.n != n {
			s.fillValid()
		}
	}
}

// plane returns marker m's status words, every window's in cluster
// order, capped so an append cannot reach the next plane.
func (t *Table) plane(m MarkerID) []uint64 {
	n := len(t.stores) * t.rowWords
	return t.slab[int(m)*n : (int(m)+1)*n : (int(m)+1)*n]
}

// And computes m3 = m1 AND m2 at every node of the machine. For a
// complex m3, fn combines the operand values at every set node.
func (t *Table) And(m1, m2, m3 MarkerID, fn FuncCode) { t.boolean(false, m1, m2, m3, fn) }

// Or computes m3 = m1 OR m2 at every node of the machine. Values for a
// complex m3 are merged from whichever operand is set (m1 preferred
// when both are).
func (t *Table) Or(m1, m2, m3 MarkerID, fn FuncCode) { t.boolean(true, m1, m2, m3, fn) }

// boolean is the AND/OR kernel. Unused words of a window are zero in
// both operands, so the sweep runs straight through them. A complex
// destination's registers are filled per set word by the owning store,
// from operand words sampled before the write.
func (t *Table) boolean(or bool, m1, m2, m3 MarkerID, fn FuncCode) {
	r1 := t.plane(m1)
	r2 := t.plane(m2)[:len(r1)]
	r3 := t.plane(m3)[:len(r1)]
	switch {
	case !m3.IsComplex() && or:
		for i, w1 := range r1 {
			r3[i] = w1 | r2[i]
		}
	case !m3.IsComplex():
		for i, w1 := range r1 {
			r3[i] = w1 & r2[i]
		}
	default:
		for i, w1 := range r1 {
			w2 := r2[i]
			res := w1 & w2
			if or {
				res = w1 | w2
			}
			r3[i] = res
			if res != 0 {
				t.stores[i/t.rowWords].combineValues(i%t.rowWords, res, w1, w2, m1, m2, m3, fn)
			}
		}
	}
}

// Not computes m2 = NOT m1 at every node of the machine. NOT has no
// operand register to hand a complex m2, so the bits it sets carry a
// fresh machine's registers.
func (t *Table) Not(m1, m2 MarkerID) {
	r1 := t.plane(m1)
	r2 := t.plane(m2)[:len(r1)]
	valid := t.valid[:len(r1)]
	for i, w1 := range r1 {
		r2[i] = ^w1 & valid[i]
	}
	for _, s := range t.stores {
		s.zeroRegisters(m2)
	}
}

// SetAll sets marker m at every node of the machine with the given
// value (the SET-MARKER sweep): the plane takes the valid plane's words,
// a complex marker's value registers take v, and its origin registers
// read as on a fresh machine.
func (t *Table) SetAll(m MarkerID, v float32) {
	copy(t.plane(m), t.valid)
	if !m.IsComplex() {
		return
	}
	for _, s := range t.stores {
		s.fillRegisters(m, v)
	}
}

// ClearAll clears marker m at every node of the machine.
func (t *Table) ClearAll(m MarkerID) { clear(t.plane(m)) }

// ClearRows clears the planes named by the (lo, hi) marker mask — bit i
// of lo selects complex marker i, bit i of hi selects binary marker
// 64+i — machine-wide, and returns the number cleared. A run dirties at
// most its program's write set, so the reset between queries clears
// those planes, one memclr each; the full mask is one memclr of the slab.
func (t *Table) ClearRows(lo, hi uint64) int {
	if lo&hi == ^uint64(0) {
		clear(t.slab)
		return NumMarkers
	}
	rows := 0
	for w, word := range [2]uint64{lo, hi} {
		for ; word != 0; word &= word - 1 {
			t.ClearAll(MarkerID(w*64 + bits.TrailingZeros64(word)))
			rows++
		}
	}
	return rows
}

// CountSet reports how many nodes of the machine have m set.
func (t *Table) CountSet(m MarkerID) int {
	n := 0
	for _, w := range t.plane(m) {
		n += bits.OnesCount64(w)
	}
	return n
}

// Project sets, in a bitmap over global node IDs, the bit of every node
// of the machine that holds marker m, and returns how many there are:
// COLLECT's gather, one pass over one plane.
func (t *Table) Project(m MarkerID, dst []uint64) int {
	total := 0
	for i, word := range t.plane(m) {
		if word == 0 {
			continue
		}
		total += bits.OnesCount64(word)
		globals := t.stores[i/t.rowWords].global
		for base := i % t.rowWords * HostWordBits; word != 0; word &= word - 1 {
			g := globals[base+bits.TrailingZeros64(word)]
			dst[g/HostWordBits] |= 1 << (g % HostWordBits)
		}
	}
	return total
}
