package semnet

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// refKB is the knowledge base as a node table of plain slices and a
// slice of links per node: the layout the KB kept before its columns and
// link arena, kept here as the differential reference. Every rule of the
// KB is restated on it: duplicate names, unknown endpoints, first-match
// link removal, the generation each mutation counts, and Preprocess's
// split with its subnode names.
type refKB struct {
	names   []string
	colors  []Color
	fns     []FuncCode
	parents []NodeID
	links   [][]Link
	gen     uint64
}

func (r *refKB) lookup(name string) (NodeID, bool) {
	if i := slices.Index(r.names, name); i >= 0 {
		return NodeID(i), true
	}
	return InvalidNode, false
}

func (r *refKB) add(name string, c Color, fn FuncCode, parent NodeID, links []Link) NodeID {
	r.names = append(r.names, name)
	r.colors = append(r.colors, c)
	r.fns = append(r.fns, fn)
	r.parents = append(r.parents, parent)
	r.links = append(r.links, links)
	return NodeID(len(r.names) - 1)
}

func (r *refKB) addNode(name string, c Color) bool {
	if _, ok := r.lookup(name); ok {
		return false
	}
	r.add(name, c, FuncNop, InvalidNode, nil)
	r.gen++
	return true
}

func (r *refKB) addLink(from NodeID, l Link) bool {
	if int(from) >= len(r.names) || int(l.To) >= len(r.names) {
		return false
	}
	r.links[from] = append(r.links[from], l)
	r.gen++
	return true
}

func (r *refKB) removeLink(from NodeID, rel RelType, to NodeID) bool {
	if int(from) >= len(r.names) {
		return false
	}
	for i, l := range r.links[from] {
		if l.Rel == rel && l.To == to {
			r.links[from] = slices.Delete(slices.Clone(r.links[from]), i, i+1)
			r.gen++
			return true
		}
	}
	return false
}

func (r *refKB) setColor(id NodeID, c Color) bool {
	if int(id) >= len(r.names) {
		return false
	}
	if r.colors[id] != c {
		r.colors[id] = c
		r.gen++
	}
	return true
}

func (r *refKB) setFn(id NodeID, fn FuncCode) bool {
	if int(id) >= len(r.names) {
		return false
	}
	r.fns[id] = fn
	r.gen++
	return true
}

// preprocess is the split as the paper's preprocessor states it, over
// per-node slices: banks of RelationSlots links become subnodes in
// order, the node keeps a continuation link to each, and a node whose
// continuation links still overflow splits again.
func (r *refKB) preprocess() {
	before := len(r.names)
	for id := 0; id < len(r.names); id++ {
		links := r.links[id]
		if len(links) <= RelationSlots {
			continue
		}
		canonical := NodeID(id)
		for r.parents[canonical] != InvalidNode {
			canonical = r.parents[canonical]
		}
		var conts []Link
		for start := 0; start < len(links); start += RelationSlots {
			sub := NodeID(len(r.names))
			name := r.names[canonical] + "~" + strconv.Itoa(int(sub))
			for k := 2; slices.Contains(r.names, name); k++ {
				name = r.names[canonical] + "~" + strconv.Itoa(int(sub)) + "~" + strconv.Itoa(k)
			}
			group := slices.Clone(links[start:min(start+RelationSlots, len(links))])
			r.add(name, ColorSubnode, r.fns[id], NodeID(id), group)
			conts = append(conts, Link{Rel: RelCont, To: sub})
		}
		r.links[id] = conts
		if len(conts) > RelationSlots {
			id--
		}
	}
	if len(r.names) != before {
		r.gen++
	}
}

// twin builds the reference's network as a KB, element by element: the
// relation and color names interned in order, each node appended with
// its row, and its links added one at a time to a fresh arena, at the
// reference's generation.
func (r *refKB) twin(relations, colors []string) *KB {
	kb := NewKB()
	for _, name := range relations {
		kb.Relation(name)
	}
	for _, name := range colors {
		kb.ColorFor(name)
	}
	for id, name := range r.names {
		if _, ok := kb.appendNode(name, r.colors[id], r.fns[id], r.parents[id]); !ok {
			panic("reference holds a duplicate name " + name)
		}
	}
	for id, links := range r.links {
		for _, l := range links {
			kb.links.add(id, l)
		}
	}
	kb.gen.Store(r.gen)
	return kb
}

// kbName is the name pool the tape draws from: few enough that names
// repeat, and shaped like subnode names so a split meets names taken.
func kbName(b byte) string {
	if b&1 == 0 {
		return string(rune('a' + b>>1%4))
	}
	return string(rune('a'+b>>1%2)) + "~" + strconv.Itoa(int(b>>2%24))
}

// kbWriter is what the tape's adds and lookups need: a KB, or the
// Builder a tape starts on.
type kbWriter interface {
	AddNode(name string, color Color) (NodeID, error)
	AddLink(from NodeID, rel RelType, weight float32, to NodeID) error
	Lookup(name string) (NodeID, bool)
}

// alias is an arena forked from the KB's mid-tape, as a cluster store
// downloaded then would hold it, sharing the KB's base, and the rows it
// read when it was taken.
type alias struct {
	a    linkArena
	rows [][]Link
}

// kbTape applies one operation tape to a KB and to the reference and
// compares them after every step; the KB is held to the reference by
// semnet.Diff against the reference's per-element twin at the end. The
// tape's first steps go through a Builder, as many as its second byte
// says, so the arena a Builder lays out is mutated too. An alias of the
// KB's arena, taken at any step, must read the rows it read then after
// every later one: no KB mutator, compaction included, writes the base
// the alias shares.
func kbTape(t *testing.T, tape []byte) {
	next := func() byte {
		if len(tape) == 0 {
			return 0
		}
		b := tape[0]
		tape = tape[1:]
		return b
	}
	relNames, colorNames := []string{"r0", "r1", "r2"}, []string{"c0", "c1"}
	hint := int(next() % 8)
	b, built := NewBuilder(hint, 4*hint), int(next()%16)
	rels := []RelType{b.Relation(relNames[0]), b.Relation(relNames[1]), b.Relation(relNames[2])}
	cols := []Color{b.ColorFor(colorNames[0]), b.ColorFor(colorNames[1])}
	var kb *KB
	var w kbWriter = b
	var aliases []alias
	ref := &refKB{}
	node := func() NodeID { return NodeID(int(next()) % (len(ref.names) + 1)) } // one past the end too
	link := func() Link {
		return Link{Rel: rels[next()%3], Weight: float32(next() % 4), To: node()}
	}
	for step := 0; len(tape) > 0 || kb == nil; step++ {
		if step == built {
			kb = b.KB()
			w = kb
		}
		switch op := next() % 10; {
		case op == 0:
			name, c := kbName(next()), cols[next()%2]
			_, err := w.AddNode(name, c)
			if ok := ref.addNode(name, c); ok != (err == nil) {
				t.Fatalf("step %d: AddNode(%q): %v, reference %v", step, name, err, ok)
			}
		case op <= 2:
			// A burst of links from one node, so nodes overflow their
			// slots and Preprocess has work.
			from, n := node(), 1+int(next()%24)
			for range n {
				l := link()
				err := w.AddLink(from, l.Rel, l.Weight, l.To)
				if ok := ref.addLink(from, l); ok != (err == nil) {
					t.Fatalf("step %d: AddLink(%d, %+v): %v, reference %v", step, from, l, err, ok)
				}
			}
		case op == 8:
			name := kbName(next())
			id, ok := w.Lookup(name)
			if rid, rok := ref.lookup(name); id != rid || ok != rok {
				t.Fatalf("step %d: Lookup(%q) = %d %v, reference %d %v", step, name, id, ok, rid, rok)
			}
		case kb == nil: // a Builder only adds
			continue
		case op <= 4:
			from, n := node(), 1+int(next()%8)
			for range n {
				l := link()
				if got, want := kb.RemoveLink(from, l.Rel, l.To), ref.removeLink(from, l.Rel, l.To); got != want {
					t.Fatalf("step %d: RemoveLink(%d, %d, %d) = %v, reference %v", step, from, l.Rel, l.To, got, want)
				}
			}
		case op == 5:
			id, c := node(), cols[next()%2]
			if err := kb.SetColor(id, c); (err == nil) != ref.setColor(id, c) {
				t.Fatalf("step %d: SetColor(%d): %v", step, id, err)
			}
		case op == 6:
			id, fn := node(), FuncCode(next()%uint8(numFuncCodes))
			if err := kb.SetFn(id, fn); (err == nil) != ref.setFn(id, fn) {
				t.Fatalf("step %d: SetFn(%d): %v", step, id, err)
			}
		case op == 9 && next()%2 == 1:
			// Compact now, as holes would make a write do later.
			kb.links.compact()
		case op == 9:
			a := kb.links.fork(0)
			al := alias{a: a, rows: make([][]Link, len(a.off))}
			for i := range al.rows {
				al.rows[i] = slices.Clone(a.row(i))
			}
			aliases = append(aliases, al)
		case op == 7:
			kb.Preprocess()
			ref.preprocess()
			if err := kb.Validate(); err != nil {
				t.Fatalf("step %d: Validate after Preprocess: %v", step, err)
			}
		}
		if kb == nil {
			continue
		}
		for k, al := range aliases {
			for i, want := range al.rows {
				if got := al.a.row(i); !slices.Equal(got, want) {
					t.Fatalf("step %d: alias %d's row %d = %v, want %v as taken", step, k, i, got, want)
				}
			}
		}
		if kb.NumNodes() != len(ref.names) || kb.Generation() != ref.gen {
			t.Fatalf("step %d: %d nodes at generation %d, reference %d at %d",
				step, kb.NumNodes(), kb.Generation(), len(ref.names), ref.gen)
		}
		id := node()
		if got, want := kb.Links(id), refLinks(ref, id); !slices.Equal(got, want) {
			t.Fatalf("step %d: Links(%d) = %v, reference %v", step, id, got, want)
		}
		total := 0
		for _, links := range ref.links {
			total += len(links)
		}
		if kb.NumLinks() != total {
			t.Fatalf("step %d: %d links, reference %d", step, kb.NumLinks(), total)
		}
	}
	if err := Diff(kb, ref.twin(relNames, colorNames)); err != nil {
		t.Fatal(err)
	}
}

func refLinks(r *refKB, id NodeID) []Link {
	if int(id) >= len(r.links) {
		return nil
	}
	return r.links[id]
}

// TestKBLinksDifferential runs random tapes through kbTape: adds, bursts,
// removals, recolors, Preprocess and lookups in every interleaving.
func TestKBLinksDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		tape := make([]byte, 64+rng.Intn(1024))
		rng.Read(tape)
		kbTape(t, tape)
	}
}

// FuzzKBLinks is the coverage-guided entry point over the same model:
// the fuzzer's byte string is the operation tape.
func FuzzKBLinks(f *testing.F) {
	// Built on the KB from the start: nodes, a burst over the slots,
	// Preprocess, removals, a lookup.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 0, 2, 1, 20, 0, 1, 0, 1, 1, 0, 2, 1, 1, 7, 3, 0, 4, 0, 1, 0, 8, 1})
	// A user node named like the subnode a split will make.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 1, 0, 4, 0, 1, 0, 1, 23, 1, 2, 1, 7, 8, 3})
	// Three steps through a Builder, then writes on the KB it made.
	f.Add([]byte{2, 3, 0, 2, 0, 0, 6, 1, 1, 0, 5, 0, 1, 6, 0, 2, 3, 0, 2, 0, 0, 1, 7, 3, 1, 4})
	// An alias of the Builder's base, then writes that thaw its rows,
	// Preprocess, another alias, a compaction and more writes.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 20, 9, 0, 3, 0, 4, 0, 1, 0, 1, 1, 0, 2, 1, 7, 9, 0, 9, 1, 2, 1, 6, 3, 0, 4, 1, 0})
	f.Fuzz(kbTape)
}
