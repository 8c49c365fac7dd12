package semnet

import "math"

// linkArena is a relation table in compressed-sparse-row form, the one
// layout both the host knowledge base and every cluster store keep their
// links in: each row's links are a contiguous block of one of two slabs,
// so a node's links are a sub-slice of one allocation instead of a
// pointer-chased per-node heap slice (Cabarle et al.'s network as one
// index-addressed sparse matrix, PAPERS.md).
//
// The base slab is laid out once and never written again, so any number
// of arenas may index it: Builder.KB lays the knowledge base's links
// into it, and every cluster store downloaded from that KB takes the
// KB's base as its own and points its rows at its members' blocks. The
// private slab is the arena's alone. A row lives in the base when its
// offset is non-negative (base[off:off+cnt]) and in the private slab at
// ^off when it is negative.
//
// No mutator writes a base position: a row a write touches moves into
// the private slab first (thaw), leaving its base slots dead. In the
// private slab mutators patch blocks in place when they fit (or sit at
// the slab tail) and otherwise relocate the block to the tail, leaving
// a hole. The explicit count column makes single-row mutation O(degree)
// instead of O(total links). A private block keeps the slots its row gave
// up (spare) for the row's next links, so a link deleted and created
// again on one row, as writes toggle it, stays in place. Once dead slots
// dominate, compact packs every row into a fresh base.
type linkArena struct {
	off   []int32
	cnt   []int32
	spare []uint8 // dead private slots right after row i's links that row i may refill
	base  []Link  // never written once laid out; possibly shared with other arenas
	slab  []Link  // the private slab
	// frozen counts the base slots this arena's rows held when it took
	// its base: with len(slab), the slots its live links and its holes
	// add up to.
	frozen int
	holes  int // dead slots: base slots of thawed rows, abandoned private blocks and spare slots
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
// block. Read-only: the slice is the arena's, or the base it shares.
func (a *linkArena) row(i int) []Link {
	off, cnt, s := a.off[i], a.cnt[i], a.base
	if off < 0 {
		off, s = ^off, a.slab
	}
	return s[off : off+cnt : off+cnt]
}

// live reports the number of links held in all rows.
func (a *linkArena) live() int { return a.frozen + len(a.slab) - a.holes }

// addRow appends an empty row: an empty block of the base, so the row
// reads nothing until a write thaws it.
func (a *linkArena) addRow() {
	a.off = append(a.off, 0)
	a.cnt = append(a.cnt, 0)
	a.spare = append(a.spare, 0)
}

// thaw moves row i, when it lives in the base, to the private slab's
// tail, so a mutator may write it, and returns its private position.
func (a *linkArena) thaw(i int) int32 {
	off, cnt := a.off[i], a.cnt[i]
	if off < 0 {
		return ^off
	}
	p := int32(len(a.slab))
	a.slab = append(a.slab, a.base[off:off+cnt]...)
	a.off[i] = ^p
	a.holes += int(cnt)
	return p
}

// set replaces row i's links with links: in place when they fit the
// block, its spare slots included; extending in place when the block
// sits at the slab tail; and otherwise relocating to the tail.
func (a *linkArena) set(i int, links []Link) {
	off, cnt := a.thaw(i), int(a.cnt[i])
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
		a.off[i], a.spare[i] = ^int32(len(a.slab)), 0
		a.slab = append(a.slab, links...)
	}
	a.cnt[i] = int32(len(links))
	a.maybeCompact()
}

// add appends l to row i: into a spare slot of its block, at the slab
// tail when the block ends there, and otherwise by relocating the block
// to the tail.
func (a *linkArena) add(i int, l Link) {
	off, cnt := a.thaw(i), a.cnt[i]
	switch {
	case a.spare[i] > 0:
		a.slab[off+cnt] = l
		a.spare[i]--
		a.holes--
	case int(off)+int(cnt) == len(a.slab):
		a.slab = append(a.slab, l)
	default:
		a.holes += int(cnt)
		a.off[i] = ^int32(len(a.slab))
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
	off, cnt := int(a.thaw(i)), int(a.cnt[i])
	copy(a.slab[off+j:off+cnt-1], a.slab[off+j+1:off+cnt])
	a.holes++
	a.cnt[i] = int32(cnt - 1)
	a.setSpare(i, int(a.spare[i])+1)
	a.maybeCompact()
}

// split hands row i's links, bank at a time and in order, to the empty
// rows from first on, and gives row i in their place one zero-weight
// RelCont link to each of those rows, in a block at the private slab's
// tail. The rows take sub-blocks of row i's block, in whichever slab it
// lives, so nothing is copied and no hole is left but the block's spare
// slots.
func (a *linkArena) split(i, first, bank int) {
	off, cnt := a.off[i], a.cnt[i]
	n := 0
	for start := int32(0); start < cnt; start += int32(bank) {
		sub := off + start
		if off < 0 {
			sub = off - start // ^(^off + start)
		}
		a.off[first+n], a.cnt[first+n] = sub, min(int32(bank), cnt-start)
		n++
	}
	a.off[i], a.cnt[i], a.spare[i] = ^int32(len(a.slab)), int32(n), 0
	for k := range n {
		a.slab = append(a.slab, Link{Rel: RelCont, Weight: 0, To: NodeID(first + k)})
	}
}

// layOut fills an arena of empty rows with links, each placed in its
// source's row of a fresh base: a counting pass by source sizes every
// block, then one pass in the list's order fills them, so each row keeps
// the order its links were added in. It returns the number of
// continuation subnodes Preprocess will split the rows into, and sizes
// the private slab once for their continuation links and a write's
// headroom.
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
	a.base, a.frozen = make([]Link, len(links)), len(links)
	for _, l := range links {
		a.base[a.off[l.from]+a.cnt[l.from]] = l.Link
		a.cnt[l.from]++
	}
	a.slab = make([]Link, 0, subnodes+headroom(len(links)+subnodes))
	return subnodes
}

// index points the empty rows 0, 1, … of a at rows rows of src, in
// order. a takes src's base as its own and indexes each row that lives
// there in place; only the rows in src's private slab are copied, into a
// private slab sized once for them and a write's headroom.
func (a *linkArena) index(src *linkArena, rows []NodeID) {
	copied := 0
	for _, r := range rows {
		if c := int(src.cnt[r]); src.off[r] < 0 {
			copied += c
		} else {
			a.frozen += c
		}
	}
	a.base = src.base
	a.slab = make([]Link, 0, copied+headroom(copied+a.frozen))
	for k, r := range rows {
		a.off[k], a.cnt[k] = src.off[r], src.cnt[r]
		if src.off[r] < 0 {
			a.off[k] = ^int32(len(a.slab))
			a.slab = append(a.slab, src.row(int(r))...)
		}
	}
}

// headroom is the spare room at the end of a private slab sized in one
// go for an arena of n links: one link in 32. A write moves a row to the
// private slab's end, and with no room there the first write would copy
// the whole private slab into a new one.
func headroom(n int) int { return n / 32 }

// reserve makes room for rows more rows and links more private links,
// growing each column at most once and to exactly what is asked.
func (a *linkArena) reserve(rows, links int) {
	a.off = growExact(a.off, rows)
	a.cnt = growExact(a.cnt, rows)
	a.spare = growExact(a.spare, rows)
	a.slab = growExact(a.slab, links)
}

// fork returns a copy of the arena that shares its base, whose row
// columns hold rows rows before they first grow. The columns and the
// private slab are copied, the private slab verbatim, holes and all, so
// positions in it stay valid; the base, which nothing writes, is not.
func (a *linkArena) fork(rows int) linkArena {
	c := newLinkArena(max(rows, len(a.off)))
	c.off = append(c.off, a.off...)
	c.cnt = append(c.cnt, a.cnt...)
	c.spare = append(c.spare, a.spare...)
	c.base, c.frozen, c.holes = a.base, a.frozen, a.holes
	c.slab = append([]Link(nil), a.slab...)
	return c
}

// maybeCompact repacks the arena once holes dominate it. Only mutators
// call it, so a store has already made its tables private.
func (a *linkArena) maybeCompact() {
	if a.holes > 64 && a.holes*2 > a.frozen+len(a.slab) {
		a.compact()
	}
}

// compact packs every row densely, in row order, into a fresh base, and
// empties the private slab, keeping its capacity for the next writes.
// The old base is left as it is for the arenas that index it.
func (a *linkArena) compact() {
	base := make([]Link, 0, a.live())
	for i := range a.off {
		row := a.row(i)
		a.off[i] = int32(len(base))
		base = append(base, row...)
	}
	clear(a.spare)
	a.base, a.frozen = base, len(base)
	a.slab, a.holes = a.slab[:0], 0
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
