package semnet

import "math"

// linkArena is a relation table in compressed-sparse-row form, the one
// layout both the host knowledge base and every cluster store keep their
// links in: row i's links occupy slab[off[i] : off[i]+cnt[i]], so a node's
// links are a contiguous sub-slice of one allocation instead of a
// pointer-chased per-node heap slice (Cabarle et al.'s network as one
// index-addressed sparse matrix, PAPERS.md).
//
// Mutators patch blocks in place when they fit (or sit at the slab tail)
// and otherwise relocate the block to the tail, leaving a hole; holes are
// compacted away once they dominate the slab. Unlike a strict
// n+1-offset CSR, the explicit count column makes single-row mutation
// O(degree) instead of O(total links). A block keeps the slots its row
// gave up (spare) for the row's next links, so a link deleted and
// created again on one row, as writes toggle it, stays in place. The slab
// never gets shorter: a row added link-less keeps its offset at the slab
// end it saw, and a shorter slab would put that offset past the end.
type linkArena struct {
	off   []int32
	cnt   []int32
	spare []uint8 // dead slots right after row i's links that row i may refill
	slab  []Link
	holes int // dead slots: abandoned blocks and spare slots
}

// newLinkArena returns an empty arena whose row columns hold rows rows
// before they first grow.
func newLinkArena(rows int) linkArena {
	return linkArena{
		off:   make([]int32, 0, rows),
		cnt:   make([]int32, 0, rows),
		spare: make([]uint8, 0, rows),
	}
}

// row returns row i's links, capped so an append cannot reach the next
// block. Read-only: the slice is the arena's.
func (a *linkArena) row(i int) []Link {
	off, end := a.off[i], a.off[i]+a.cnt[i]
	return a.slab[off:end:end]
}

// live reports the number of links held in all rows.
func (a *linkArena) live() int { return len(a.slab) - a.holes }

// addRow appends an empty row.
func (a *linkArena) addRow() {
	a.off = append(a.off, int32(len(a.slab)))
	a.cnt = append(a.cnt, 0)
	a.spare = append(a.spare, 0)
}

// set replaces row i's links with links: in place when they fit the
// block, its spare slots included; extending in place when the block
// sits at the slab tail; and otherwise relocating to the tail.
func (a *linkArena) set(i int, links []Link) {
	off, cnt := a.off[i], int(a.cnt[i])
	room := cnt + int(a.spare[i])
	switch {
	case len(links) <= room:
		copy(a.slab[off:], links)
		a.holes += cnt - len(links)
		a.setSpare(i, room-len(links))
	case int(off)+room == len(a.slab):
		a.slab = append(a.slab[:off], links...)
		a.holes -= room - cnt
		a.spare[i] = 0
	default:
		a.holes += cnt
		a.off[i], a.spare[i] = int32(len(a.slab)), 0
		a.slab = append(a.slab, links...)
	}
	a.cnt[i] = int32(len(links))
	a.maybeCompact()
}

// add appends l to row i: into a spare slot of its block, at the slab
// tail when the block ends there, and otherwise by relocating the block
// to the tail.
func (a *linkArena) add(i int, l Link) {
	off, cnt := a.off[i], a.cnt[i]
	switch {
	case a.spare[i] > 0:
		a.slab[off+cnt] = l
		a.spare[i]--
		a.holes--
	case int(off)+int(cnt) == len(a.slab):
		a.slab = append(a.slab, l)
	default:
		a.holes += int(cnt)
		a.off[i] = int32(len(a.slab))
		a.slab = append(a.slab, a.slab[off:off+cnt]...)
		a.slab = append(a.slab, l)
	}
	a.cnt[i] = cnt + 1
	a.maybeCompact()
}

// setSpare records n spare slots after row i's links, as many as the
// column holds; any beyond are holes no row refills.
func (a *linkArena) setSpare(i, n int) { a.spare[i] = uint8(min(n, math.MaxUint8)) }

// find returns the position in row i of its first link matching
// (rel, to), or -1.
func (a *linkArena) find(i int, rel RelType, to NodeID) int {
	for j, l := range a.row(i) {
		if l.Rel == rel && l.To == to {
			return j
		}
	}
	return -1
}

// removeAt deletes the link at position j of row i, keeping the order of
// the rest. The block shrinks in place and its vacated last slot becomes
// a spare slot.
func (a *linkArena) removeAt(i, j int) {
	off, cnt := int(a.off[i]), int(a.cnt[i])
	copy(a.slab[off+j:off+cnt-1], a.slab[off+j+1:off+cnt])
	a.holes++
	a.cnt[i] = int32(cnt - 1)
	a.setSpare(i, int(a.spare[i])+1)
	a.maybeCompact()
}

// split hands row i's links, bank at a time and in order, to the empty
// rows from first on, and gives row i in their place one zero-weight
// RelCont link to each of those rows, in a block at the slab end. The
// rows take sub-blocks of row i's block, so nothing is copied and no hole
// is left but the block's spare slots.
func (a *linkArena) split(i, first, bank int) {
	off, cnt := a.off[i], a.cnt[i]
	n := 0
	for start := int32(0); start < cnt; start += int32(bank) {
		a.off[first+n], a.cnt[first+n] = off+start, min(int32(bank), cnt-start)
		n++
	}
	a.off[i], a.cnt[i], a.spare[i] = int32(len(a.slab)), int32(n), 0
	for k := range n {
		a.slab = append(a.slab, Link{Rel: RelCont, Weight: 0, To: NodeID(first + k)})
	}
}

// layOut fills an arena of empty rows with links, each placed in its
// source's row: a counting pass by source sizes every block, then one
// pass in the list's order fills them, so each row keeps the order its
// links were added in. It returns the number of continuation subnodes
// Preprocess will split the rows into, and sizes the slab once for their
// continuation links and a write's headroom.
func (a *linkArena) layOut(links []sourced) (subnodes int) {
	for _, l := range links {
		a.cnt[l.from]++
	}
	at := int32(0)
	for i, c := range a.cnt {
		subnodes += subnodesFor(int(c))
		a.off[i] = at
		at += c
		a.cnt[i] = 0
	}
	n := len(links) + subnodes
	a.slab = make([]Link, len(links), n+headroom(n))
	for _, l := range links {
		a.slab[a.off[l.from]+a.cnt[l.from]] = l.Link
		a.cnt[l.from]++
	}
	return subnodes
}

// headroom is the spare room at the end of a slab sized in one go for n
// links: one link in 32. A write relocates a block to the slab's end,
// and with no room there the first write would copy the whole slab into
// a new one.
func headroom(n int) int { return n / 32 }

// reserve makes room for rows more rows and links more links, growing
// each column at most once and to exactly what is asked.
func (a *linkArena) reserve(rows, links int) {
	a.off = growExact(a.off, rows)
	a.cnt = growExact(a.cnt, rows)
	a.spare = growExact(a.spare, rows)
	a.slab = growExact(a.slab, links)
}

// clone returns a private copy of the arena whose row columns hold rows
// rows before they first grow. The slab is copied verbatim, holes and
// all, so positions in it stay valid.
func (a *linkArena) clone(rows int) linkArena {
	c := newLinkArena(max(rows, len(a.off)))
	c.off = append(c.off, a.off...)
	c.cnt = append(c.cnt, a.cnt...)
	c.spare = append(c.spare, a.spare...)
	c.slab = append([]Link(nil), a.slab...)
	c.holes = a.holes
	return c
}

// maybeCompact repacks the slab once holes dominate it. Only mutators
// call it, so a store has already made its tables private.
func (a *linkArena) maybeCompact() {
	if a.holes > 64 && a.holes*2 > len(a.slab) {
		a.compact()
	}
}

// compact rebuilds the slab densely in row order.
func (a *linkArena) compact() {
	packed := make([]Link, 0, len(a.slab)-a.holes)
	for i, off := range a.off {
		a.off[i] = int32(len(packed))
		packed = append(packed, a.slab[off:off+a.cnt[i]]...)
	}
	clear(a.spare)
	a.slab, a.holes = packed, 0
}

// growExact returns s with room for n more elements, reallocating, when
// it must, to exactly that capacity: append's doubling would leave up to
// half the new array unused.
func growExact[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	g := make(S, len(s), len(s)+n)
	copy(g, s)
	return g
}
