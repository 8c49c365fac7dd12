package semnet

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Store holds one cluster's partition of the knowledge base in the three
// physical tables of the paper's Fig. 4:
//
//   - the node table (color, function, complex-marker value and origin
//     registers, indexed by local node number; the registers are kept in
//     blocks of 64 nodes that exist only where a program wrote them),
//   - the marker status table (one bit per node per marker; the simulated
//     machine processes W=32 nodes per status-word operation and all
//     timing charges that width, while the host packs the rows into
//     64-bit words and sweeps two simulated words per load). The bits
//     live in the machine-wide Table; the store owns one window of it,
//   - the relation table (up to 16 outgoing links per node), stored as a
//     CSR arena: one packed []Link slab plus per-node offset and count
//     columns, so a node's links are a contiguous sub-slice of one
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

	// Complex-marker registers, in blocks of 64 nodes allocated on first
	// write: regs[m*len(valid)+w] holds marker m's value and origin
	// registers at the locals of host status word w. A nil block, and the
	// nil index of a store no program has written a register of, reads as
	// a fresh machine's registers.
	regs []*RegBlock

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

	// Relation table: CSR arena. Node local's links occupy
	// relLinks[relOff[local] : relOff[local]+relCnt[local]]. Mutators
	// patch blocks in place when they fit (or sit at the slab tail) and
	// otherwise relocate the block to the tail, leaving a hole; holes
	// are compacted away once they dominate the slab. Unlike a strict
	// n+1-offset CSR, the explicit count column makes single-node
	// mutation O(degree) instead of O(total links).
	relOff   []int32
	relCnt   []int32
	relLinks []Link
	relHoles int // dead slots abandoned by relocating mutators
}

// emptyStore returns an empty store not yet bound to a table window.
func emptyStore(capacity int) *Store {
	return &Store{storeTopo: storeTopo{
		capacity: capacity,
		color:    make([]Color, 0, capacity),
		fn:       make([]FuncCode, 0, capacity),
		global:   make([]NodeID, 0, capacity),
		relOff:   make([]int32, 0, capacity),
		relCnt:   make([]int32, 0, capacity),
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
	relOff := make([]int32, len(s.relOff), s.capacity)
	copy(relOff, s.relOff)
	relCnt := make([]int32, len(s.relCnt), s.capacity)
	copy(relCnt, s.relCnt)
	relLinks := append([]Link(nil), s.relLinks...)
	s.color, s.fn, s.global = color, fn, global
	s.relOff, s.relCnt, s.relLinks = relOff, relCnt, relLinks
	s.sharedTopo.Store(false)
}

// NumNodes reports the number of local nodes stored.
func (s *Store) NumNodes() int { return s.n }

// Capacity reports the store's local node capacity.
func (s *Store) Capacity() int { return s.capacity }

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
	s.relOff = append(s.relOff, int32(len(s.relLinks)))
	s.relCnt = append(s.relCnt, 0)
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
	s.setBlock(local, links)
	return nil
}

// setBlock replaces node local's arena block with links: shrinking in
// place when the new block fits, extending in place when the block sits
// at the slab tail, and otherwise relocating to the tail.
func (s *Store) setBlock(local int, links []Link) {
	off, cnt := s.relOff[local], s.relCnt[local]
	switch {
	case len(links) <= int(cnt):
		copy(s.relLinks[off:], links)
		s.relHoles += int(cnt) - len(links)
	case int(off)+int(cnt) == len(s.relLinks):
		s.relLinks = append(s.relLinks[:off], links...)
	default:
		s.relHoles += int(cnt)
		s.relOff[local] = int32(len(s.relLinks))
		s.relLinks = append(s.relLinks, links...)
	}
	s.relCnt[local] = int32(len(links))
	s.maybeCompact()
}

// maybeCompact repacks the arena once relocation holes dominate it.
// Only called from mutators, after own(), so aliased slabs are never
// rewritten.
func (s *Store) maybeCompact() {
	if s.relHoles > 64 && s.relHoles*2 > len(s.relLinks) {
		s.compact()
	}
}

// compact rebuilds the slab densely in local-node order.
func (s *Store) compact() {
	packed := make([]Link, 0, len(s.relLinks)-s.relHoles)
	for i := 0; i < s.n; i++ {
		off := s.relOff[i]
		s.relOff[i] = int32(len(packed))
		packed = append(packed, s.relLinks[off:off+s.relCnt[i]]...)
	}
	s.relLinks, s.relHoles = packed, 0
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
func (s *Store) Links(local int) []Link {
	off, end := s.relOff[local], s.relOff[local]+s.relCnt[local]
	return s.relLinks[off:end:end]
}

// NumLinks reports the number of live relation-table entries.
func (s *Store) NumLinks() int { return len(s.relLinks) - s.relHoles }

// RegBlock is one complex marker's value and origin registers at the 64
// local nodes of one host status word: lane b is local w*64+b. A nil
// *RegBlock is a block no program wrote, and reads as a fresh machine's.
type RegBlock [HostWordBits]register

// register is one node's value and origin registers.
type register struct {
	v float32
	o NodeID
}

// Value reads lane b's value register.
func (r *RegBlock) Value(b int) float32 {
	if r == nil {
		return 0
	}
	return r[b].v
}

// Origin reads lane b's origin-address register.
func (r *RegBlock) Origin(b int) NodeID {
	if r == nil {
		return 0
	}
	return r[b].o
}

// Registers returns complex marker m's register block for host word w, or
// nil when m is binary or the block was never written. Read-only: the
// block is owned by the store.
func (s *Store) Registers(m MarkerID, w int) *RegBlock {
	if i := int(m)*len(s.valid) + w; m.IsComplex() && i < len(s.regs) {
		return s.regs[i]
	}
	return nil
}

// block returns complex marker m's register block for host word w,
// allocating it if it was never written, and the index on the store's
// first register write. m must be complex.
func (s *Store) block(m MarkerID, w int) *RegBlock {
	if s.regs == nil {
		s.regs = make([]*RegBlock, NumComplexMarkers*len(s.valid))
	}
	i := int(m)*len(s.valid) + w
	if s.regs[i] == nil {
		s.regs[i] = new(RegBlock)
	}
	return s.regs[i]
}

// markerBlocks returns complex marker m's slots of the block index, one
// per host word (nil before the store's first register write).
func (s *Store) markerBlocks(m MarkerID) []*RegBlock {
	if s.regs == nil {
		return nil
	}
	lo := int(m) * len(s.valid)
	return s.regs[lo : lo+len(s.valid)]
}

// Set sets marker m at a local node and reports whether the bit was
// previously clear (the "newly activated" signal that drives propagation).
func (s *Store) Set(local int, m MarkerID) bool {
	w, b := local/HostWordBits, uint(local%HostWordBits)
	old := s.status[m][w]
	s.status[m][w] = old | 1<<b
	return old&(1<<b) == 0
}

// Clear clears marker m at a local node.
func (s *Store) Clear(local int, m MarkerID) {
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
		s.block(m, local/HostWordBits)[local%HostWordBits] = register{v, origin}
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
// blocks are cleared, not freed, so a warmed store writes them again
// without allocating.
func (s *Store) zeroRegisters(m MarkerID) {
	if !m.IsComplex() {
		return
	}
	for _, r := range s.markerBlocks(m) {
		if r != nil {
			clear(r[:])
		}
	}
}

// fillRegisters writes v to complex marker m's value register and a fresh
// machine's origin to its origin register at every local node (the
// SET-MARKER sweep's registers).
func (s *Store) fillRegisters(m MarkerID, v float32) {
	for w := 0; w < s.hostWords(); w++ {
		r := s.block(m, w)
		for b := range min(HostWordBits, s.n-w*HostWordBits) {
			r[b] = register{v, 0}
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
// to give (two binary markers) a fresh machine's.
func (s *Store) combineValues(w int, set, w1, w2 uint64, m1, m2, m3 MarkerID, fn FuncCode) {
	r1, r2 := s.Registers(m1, w), s.Registers(m2, w)
	r3 := s.block(m3, w)
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
		r3[b] = register{res, origin}
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
		for ; set != 0; set &= set - 1 {
			b := bits.TrailingZeros64(set)
			r[b].v = fn.Apply(r[b].v, operand)
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
