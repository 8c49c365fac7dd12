package semnet

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Store holds one cluster's partition of the knowledge base in the three
// physical tables of the paper's Fig. 4:
//
//   - the node table (color, function, complex-marker value and origin
//     registers, indexed by local node number; the registers are kept
//     only at the nodes a program wrote them, in packed blocks of one
//     host status word),
//   - the marker status table (one bit per node per marker; the simulated
//     machine processes W=32 nodes per status-word operation and all
//     timing charges that width, while the host packs the rows into
//     64-bit words and sweeps two simulated words per load). The bits
//     live in the machine-wide Table; the store owns one window of it,
//   - the relation table (up to 16 outgoing links per node), stored as a
//     CSR arena (linkArena, the layout the host knowledge base keeps its
//     links in too), so a node's links are a contiguous sub-slice of one
//     allocation instead of a pointer-chased per-node heap slice.
//
// A Store is owned by a single cluster and is not safe for concurrent
// mutation; the cluster's multiport-memory discipline (internal/mpmem)
// serializes writers exactly as the hardware arbiter does.
type Store struct {
	storeTopo

	// Marker status table: status[m] is a view of this store's window of
	// plane m of the machine's Table; bit b of word w means marker m is
	// set at local node w*HostWordBits+b. valid is the same view of the
	// table's valid plane: the bits below n. Status bits at or beyond n
	// are always zero.
	status [NumMarkers][]uint64
	valid  []uint64

	// Complex-marker registers, in one block per (marker, host status
	// word) allocated on first write: regs[m][w] holds marker m's value
	// and origin registers at the locals of word w, only the lanes a
	// program wrote, packed behind a presence mask. The index of rows is
	// allocated on the store's first register write, and marker m's row
	// on m's first write. An absent lane, a nil block, a nil row and a
	// nil index read as a fresh machine's registers.
	regs [][]*RegBlock

	// sharedTopo marks the node and relation tables as aliased with a
	// Topology (Table.Share) and the stores that adopted it. A shared
	// store treats those tables as immutable: any topology mutator first
	// materializes a private copy (copy-on-write), so siblings never
	// observe writes. Atomic because a pool brings replicas up
	// concurrently, and every clone of one prototype shares its stores.
	sharedTopo atomic.Bool
}

// storeTopo is a store's node and relation tables, by value: what a
// Topology holds of each window.
type storeTopo struct {
	capacity int
	n        int // local nodes stored

	// Node table.
	color  []Color
	fn     []FuncCode
	global []NodeID // local -> global ID

	// Relation table: node local's links are rel.row(local).
	rel linkArena
}

// emptyStore returns an empty store not yet bound to a table window.
func emptyStore(capacity int) *Store {
	return &Store{storeTopo: storeTopo{
		capacity: capacity,
		color:    make([]Color, 0, capacity),
		fn:       make([]FuncCode, 0, capacity),
		global:   make([]NodeID, 0, capacity),
		rel:      newLinkArena(capacity),
	}}
}

// Words reports the number of simulated W=32-bit status words per marker
// row — the unit every status-sweep instruction charges, regardless of
// the wider words the host kernels actually load.
func (s *Store) Words() int { return (s.n + WordBits - 1) / WordBits }

// hostWords reports how many 64-bit host words cover the node range.
func (s *Store) hostWords() int { return (s.n + HostWordBits - 1) / HostWordBits }

// share marks s's node and relation tables shared and returns them: the
// first topology mutation of s then materializes a private copy
// (copy-on-write), so the tables returned are never written again.
func (s *Store) share() storeTopo {
	s.sharedTopo.Store(true)
	return s.storeTopo
}

// adopt makes tp s's node and relation tables, marked shared. Marker
// state — status rows, valid plane, registers — is left to the caller.
func (s *Store) adopt(tp storeTopo) {
	s.storeTopo = tp
	s.sharedTopo.Store(true)
}

// own materializes a private copy of the shared node and relation tables
// before a topology mutation. No-op on an unshared store.
func (s *Store) own() {
	if !s.sharedTopo.Load() {
		return
	}
	color := make([]Color, len(s.color), s.capacity)
	copy(color, s.color)
	fn := make([]FuncCode, len(s.fn), s.capacity)
	copy(fn, s.fn)
	global := make([]NodeID, len(s.global), s.capacity)
	copy(global, s.global)
	s.color, s.fn, s.global = color, fn, global
	s.rel = s.rel.clone(s.capacity)
	s.sharedTopo.Store(false)
}

// NumNodes reports the number of local nodes stored.
func (s *Store) NumNodes() int { return s.n }

// AddNode appends a node to the node table and returns its local index.
func (s *Store) AddNode(global NodeID, color Color, fn FuncCode) (int, error) {
	if s.n >= s.capacity {
		return 0, fmt.Errorf("%w: cluster store full (%d nodes)", ErrCapacity, s.capacity)
	}
	s.own()
	local := s.n
	s.n++
	s.valid[local/HostWordBits] |= 1 << uint(local%HostWordBits)
	s.color = append(s.color, color)
	s.fn = append(s.fn, fn)
	s.global = append(s.global, global)
	s.rel.addRow()
	return local, nil
}

// SetLinks installs the relation-table entries for a local node. The
// links are copied into the store's CSR arena; the caller keeps ownership
// of the argument slice.
func (s *Store) SetLinks(local int, links []Link) error {
	if local < 0 || local >= s.n {
		return fmt.Errorf("%w: local %d", ErrUnknownNode, local)
	}
	if len(links) > RelationSlots {
		return fmt.Errorf("%w: %d links exceed %d relation slots", ErrCapacity, len(links), RelationSlots)
	}
	s.own()
	s.rel.set(local, links)
	return nil
}

// ReserveLinks makes room in the relation table for n more links and a
// write's headroom at once, so a download that knows its link count sizes
// the arena once instead of growing it by doubling.
func (s *Store) ReserveLinks(n int) {
	s.own()
	s.rel.reserve(0, n+headroom(n))
}

// Global returns the global NodeID of a local node.
func (s *Store) Global(local int) NodeID { return s.global[local] }

// Globals returns the local→global ID column of the node table. The
// returned slice is owned by the store and must not be modified.
func (s *Store) Globals() []NodeID { return s.global }

// Color returns the node-table color of a local node.
func (s *Store) Color(local int) Color { return s.color[local] }

// Fn returns the node-table propagation function of a local node.
func (s *Store) Fn(local int) FuncCode { return s.fn[local] }

// Links returns the relation-table entries of a local node: a contiguous
// sub-slice of the CSR arena. The returned slice is owned by the store
// and must not be modified.
func (s *Store) Links(local int) []Link { return s.rel.row(local) }

// NumLinks reports the number of live relation-table entries.
func (s *Store) NumLinks() int { return s.rel.live() }

// RegBlock is one complex marker's value and origin registers at the 64
// local nodes of one host status word: lane b is local w*64+b. It holds
// only the lanes a program wrote, packed in lane order behind a presence
// mask: lane b is present when bit b of mask is, and then lives at
// r[popcount(mask & (1<<b - 1))]. An absent lane, and every lane of a nil
// *RegBlock (a block no program wrote), reads as a fresh machine's.
type RegBlock struct {
	mask uint64
	r    []register
}

// register is one node's value and origin registers.
type register struct {
	v float32
	o NodeID
}

// Value reads lane b's value register. Value and Origin spell out
// index(b): the call would cost (*Store).Value and Origin their inlining.
func (r *RegBlock) Value(b int) float32 {
	if r == nil || r.mask&(1<<uint(b)) == 0 {
		return 0
	}
	return r.r[bits.OnesCount64(r.mask&(1<<uint(b)-1))].v
}

// Origin reads lane b's origin-address register.
func (r *RegBlock) Origin(b int) NodeID {
	if r == nil || r.mask&(1<<uint(b)) == 0 {
		return 0
	}
	return r.r[bits.OnesCount64(r.mask&(1<<uint(b)-1))].o
}

// index is where lane b lives, or would be inserted, in r: the number of
// present lanes below it.
func (r *RegBlock) index(b int) int {
	return bits.OnesCount64(r.mask & (1<<uint(b) - 1))
}

// ensure makes every lane of set present, inserting the absent ones with
// a fresh machine's registers in one pass that moves the present entries
// up from the top lane down. Writers call it ahead of their writes. A
// lane is new to a block only on its first write since the block was
// created or emptied, so ensure is kept out of line, out of the writers'
// per-node loops.
//
//go:noinline
func (r *RegBlock) ensure(set uint64) {
	add := set &^ r.mask
	j := len(r.r) - 1 // the next entry to move up
	r.r = slices.Grow(r.r, bits.OnesCount64(add))[:len(r.r)+bits.OnesCount64(add)]
	for i, rest := len(r.r)-1, r.mask|add; add != 0; i-- {
		top := uint64(1) << (HostWordBits - 1 - bits.LeadingZeros64(rest))
		rest &^= top
		if add&top != 0 {
			r.r[i] = register{}
			add &^= top
		} else {
			r.r[i] = r.r[j]
			j--
		}
	}
	r.mask |= set
}

// Registers returns complex marker m's register block for host word w, or
// nil when m is binary or the block was never written. Read-only: the
// block is owned by the store.
func (s *Store) Registers(m MarkerID, w int) *RegBlock {
	if row := s.markerBlocks(m); w < len(row) {
		return row[w]
	}
	return nil
}

// block returns complex marker m's register block for host word w,
// allocating it if it was never written, m's row of blocks on m's first
// write, and the index of rows on the store's first register write. m
// must be complex.
func (s *Store) block(m MarkerID, w int) *RegBlock {
	if s.regs == nil {
		s.regs = make([][]*RegBlock, NumComplexMarkers)
	}
	row := s.regs[m]
	if row == nil {
		row = make([]*RegBlock, len(s.valid))
		s.regs[m] = row
	}
	if row[w] == nil {
		row[w] = new(RegBlock)
	}
	return row[w]
}

// markerBlocks returns complex marker m's row of blocks, one slot per
// host word (nil before m's first register write).
func (s *Store) markerBlocks(m MarkerID) []*RegBlock {
	if int(m) < len(s.regs) {
		return s.regs[m]
	}
	return nil
}

// Set sets marker m at a local node and reports whether the bit was
// previously clear (the "newly activated" signal that drives propagation).
func (s *Store) Set(local int, m MarkerID) bool {
	w, b := local/HostWordBits, uint(local%HostWordBits)
	old := s.status[m][w]
	s.status[m][w] = old | 1<<b
	return old&(1<<b) == 0
}

// unset clears marker m at a local node.
func (s *Store) unset(local int, m MarkerID) {
	w, b := local/HostWordBits, uint(local%HostWordBits)
	s.status[m][w] &^= 1 << b
}

// Test reports whether marker m is set at a local node.
func (s *Store) Test(local int, m MarkerID) bool {
	w, b := local/HostWordBits, uint(local%HostWordBits)
	return s.status[m][w]&(1<<b) != 0
}

// StatusRow returns marker m's packed status row (64-bit host words,
// ascending locals; bits at or beyond NumNodes are zero). Read-only:
// the slice is owned by the store.
func (s *Store) StatusRow(m MarkerID) []uint64 {
	return s.status[m][:s.hostWords()]
}

// SetValue writes the complex-marker value and origin registers.
// Binary markers have no registers; the call is ignored for them.
func (s *Store) SetValue(local int, m MarkerID, v float32, origin NodeID) {
	if m.IsComplex() {
		r, b := s.block(m, local/HostWordBits), local%HostWordBits
		if r.mask&(1<<uint(b)) == 0 {
			r.ensure(1 << uint(b))
		}
		r.r[r.index(b)] = register{v, origin}
	}
}

// Value reads a complex marker's value register (0 for binary markers or
// never-written registers).
func (s *Store) Value(local int, m MarkerID) float32 {
	return s.Registers(m, local/HostWordBits).Value(local % HostWordBits)
}

// Origin reads a complex marker's origin-address register.
func (s *Store) Origin(local int, m MarkerID) NodeID {
	return s.Registers(m, local/HostWordBits).Origin(local % HostWordBits)
}

// NotWhere is the value-conditional complement: m2 is set at every node
// where m1 is clear or where m1's value register fails pass, and cleared
// elsewhere. It returns simulated words processed. Clear words of m1
// complement whole; pass is consulted only for m1's set bits (with value
// 0 for a binary or never-written m1, as Value reports). As with
// Table.Not, the bits it sets carry a fresh machine's registers.
func (s *Store) NotWhere(m1, m2 MarkerID, pass func(v float32) bool) int {
	r1, r2 := s.status[m1], s.status[m2]
	for w, valid := range s.valid[:s.hostWords()] {
		keep := r1[w] // m1's bits whose value passes: the only bits m2 clears
		regs := s.Registers(m1, w)
		for set := keep; set != 0; set &= set - 1 {
			b := bits.TrailingZeros64(set)
			if !pass(regs.Value(b)) {
				keep &^= 1 << uint(b)
			}
		}
		r2[w] = ^keep & valid
	}
	s.zeroRegisters(m2)
	return s.Words()
}

// zeroRegisters makes every register of complex marker m read as on a
// fresh machine. Called by the kernels that turn m's bits on without an
// operand register to copy, after their last read of m's registers. The
// blocks lose their lanes but keep their entries' capacity and are not
// freed, so a warmed store writes the same lanes again without
// allocating.
func (s *Store) zeroRegisters(m MarkerID) {
	if !m.IsComplex() {
		return
	}
	for _, r := range s.markerBlocks(m) {
		if r != nil {
			r.mask, r.r = 0, r.r[:0]
		}
	}
}

// fillRegisters writes v to complex marker m's value register and a fresh
// machine's origin to its origin register at every local node (the
// SET-MARKER sweep's registers). A word's nodes are the lanes below a
// bound, so once present they are its block's first entries.
func (s *Store) fillRegisters(m MarkerID, v float32) {
	for w, valid := range s.valid[:s.hostWords()] {
		r := s.block(m, w)
		r.ensure(valid)
		for i := range r.r[:bits.OnesCount64(valid)] {
			r.r[i] = register{v, 0}
		}
	}
}

// SearchColor sets marker m at every node of the given color, writing v
// and the node's own ID to a complex marker's value and origin registers
// (the SEARCH-COLOR sweep): one pass down the color column, touching the
// status row and the registers only where a node matched.
func (s *Store) SearchColor(col Color, m MarkerID, v float32) {
	for local, c := range s.color[:s.n] {
		if c == col {
			s.Set(local, m)
			s.SetValue(local, m, v, s.global[local])
		}
	}
}

// combineValues fills m3's registers for every set bit in host word w.
// w1 and w2 are the operands' status words sampled BEFORE m3 was
// written, so the guard is correct even when m3 aliases an operand. Value
// registers of markers that were not set contribute zero: a cleared
// marker's stale register contents must not leak into results. The origin
// is the first set complex operand's, and where neither operand has one
// to give (two binary markers) a fresh machine's. When m3 aliases an
// operand, m3's lanes are inserted into the operand's own block ahead of
// the sweep; its reads stay right because the mask and the entries move
// together and an inserted lane reads as an absent one did.
func (s *Store) combineValues(w int, set, w1, w2 uint64, m1, m2, m3 MarkerID, fn FuncCode) {
	r1, r2 := s.Registers(m1, w), s.Registers(m2, w)
	r3 := s.block(m3, w)
	r3.ensure(set)
	for set != 0 {
		b := bits.TrailingZeros64(set)
		set &^= 1 << uint(b)
		set1 := w1&(1<<uint(b)) != 0
		set2 := w2&(1<<uint(b)) != 0
		// The function combines only values that exist: where a single
		// operand is set (OR), its value passes through unchanged, so
		// min/mul combinations are not poisoned by a phantom zero.
		var res float32
		switch {
		case set1 && set2:
			res = fn.Apply(r1.Value(b), r2.Value(b))
		case set1:
			res = r1.Value(b)
		default:
			res = r2.Value(b)
		}
		var origin NodeID
		switch {
		case m1.IsComplex() && set1:
			origin = r1.Origin(b)
		case m2.IsComplex() && set2:
			origin = r2.Origin(b)
		}
		r3.r[r3.index(b)] = register{res, origin}
	}
}

// FuncAll applies fn with the given operand to the value register of every
// node where m is set (FUNC-MARKER) and returns simulated words processed.
// The bit row is scanned word-wise; the value updates are inherently
// per-node scalar work.
func (s *Store) FuncAll(m MarkerID, fn FuncCode, operand float32) int {
	if !m.IsComplex() {
		return s.Words()
	}
	for w, set := range s.status[m][:s.hostWords()] {
		if set == 0 {
			continue
		}
		r := s.block(m, w)
		r.ensure(set)
		for ; set != 0; set &= set - 1 {
			l := &r.r[r.index(bits.TrailingZeros64(set))]
			l.v = fn.Apply(l.v, operand)
		}
	}
	return s.Words()
}

// denseWordBits is the per-word popcount at which frontier scans switch
// from iterating set bits (TrailingZeros) to a linear lane walk: once a
// word is mostly full, stepping every lane in order touches the node
// table and CSR arena sequentially instead of re-deriving each position
// from the bit mask (the direction-optimizing dense sweep).
const denseWordBits = HostWordBits / 4

// ForEachSet calls f for every local node where m is set, in ascending
// order, and returns the number of simulated status words scanned. The
// scan is frontier-adaptive: sparse words iterate set bits, dense words
// switch to a sequential lane walk.
func (s *Store) ForEachSet(m MarkerID, f func(local int)) int {
	row := s.status[m]
	hw := s.hostWords()
	for w := 0; w < hw; w++ {
		word := row[w]
		if word == 0 {
			continue
		}
		base := w * HostWordBits
		if bits.OnesCount64(word) >= denseWordBits {
			for b := 0; word != 0; b, word = b+1, word>>1 {
				if word&1 != 0 {
					f(base + b)
				}
			}
		} else {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				f(base + b)
			}
		}
	}
	return s.Words()
}
