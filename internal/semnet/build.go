package semnet

import (
	"fmt"
	"maps"
	"math"
)

// Builder constructs a knowledge base that no other goroutine can see
// yet: the host-side bulk build that precedes the download (kbgen's
// generator, kbfile's reader). Each method applies the same rule as the
// KB method of the same name — they share one body — but takes no lock,
// bumps no atomic and logs no delta record, since the builder is the
// KB's only reader and writer until KB hands it over. The generation it
// hands over counts one revision per node, link and function set, as
// the per-element calls would have.
//
// Links are collected in one flat list, in the order they were added,
// and laid into the base slab of the KB's link arena once, by KB, which
// also sizes every column for the subnodes Preprocess will add.
type Builder struct {
	kb    *KB
	links []sourced
	gen   uint64
}

// sourced is a link collected by a Builder, with the node it leaves.
type sourced struct {
	from NodeID
	Link
}

// NewBuilder returns a builder whose node columns and name index are
// sized for nodes nodes and whose link list is sized for links links: a
// caller that knows the counts, or bounds them, pays no regrowth.
func NewBuilder(nodes, links int) *Builder {
	return &Builder{kb: newKB(nodes), links: make([]sourced, 0, links)}
}

// KB hands the built knowledge base over. The builder must not be used
// afterwards.
func (b *Builder) KB() *KB {
	kb := b.kb
	kb.reserveNodes(kb.links.layOut(b.links))
	kb.gen.Store(b.gen)
	b.kb, b.links = nil, nil
	return kb
}

// AddNode is KB.AddNode.
func (b *Builder) AddNode(name string, color Color) (NodeID, error) {
	id, err := b.kb.addNode(name, color)
	if err == nil {
		b.gen++
	}
	return id, err
}

// MustAddNode is KB.MustAddNode.
func (b *Builder) MustAddNode(name string, color Color) NodeID {
	id, err := b.AddNode(name, color)
	if err != nil {
		panic(err)
	}
	return id
}

// SetFn is KB.SetFn.
func (b *Builder) SetFn(id NodeID, fn FuncCode) error {
	err := b.kb.setFn(id, fn)
	if err == nil {
		b.gen++
	}
	return err
}

// AddLink is KB.AddLink.
func (b *Builder) AddLink(from NodeID, rel RelType, weight float32, to NodeID) error {
	l := Link{Rel: rel, Weight: weight, To: to}
	if err := b.kb.checkLink(from, l); err != nil {
		return err
	}
	b.links = append(b.links, sourced{from, l})
	b.gen++
	return nil
}

// MustAddLink is KB.MustAddLink.
func (b *Builder) MustAddLink(from NodeID, rel RelType, weight float32, to NodeID) {
	if err := b.AddLink(from, rel, weight, to); err != nil {
		panic(err)
	}
}

// Lookup is KB.Lookup.
func (b *Builder) Lookup(name string) (NodeID, bool) { return b.kb.index.find(b.kb.names, name) }

// InternRelation is KB.InternRelation.
func (b *Builder) InternRelation(name string) (RelType, error) { return b.kb.internRelation(name) }

// InternColor is KB.InternColor.
func (b *Builder) InternColor(name string) (Color, error) { return b.kb.internColor(name) }

// Relation is KB.Relation.
func (b *Builder) Relation(name string) RelType { return mustRelation(b.InternRelation(name)) }

// ColorFor is KB.ColorFor.
func (b *Builder) ColorFor(name string) Color { return mustColor(b.InternColor(name)) }

// Diff reports the first difference between two knowledge bases, or nil
// when they are equal: node for node the name, color, function, subnode
// parent and links in order; the name index, by resolving every name in
// both; the relation and color name tables; the link count; and the
// generation. It is how a construction path is held to building the same
// network as another, whatever the layout of either's link arena.
func Diff(a, b *KB) error {
	if a == b {
		return nil
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(a.names) != len(b.names) {
		return fmt.Errorf("semnet: %d nodes against %d", len(a.names), len(b.names))
	}
	for id := range a.names {
		x, _ := a.nodeLocked(NodeID(id))
		y, _ := b.nodeLocked(NodeID(id))
		lx, ly := a.links.row(id), b.links.row(id)
		if x != y || len(lx) != len(ly) {
			return fmt.Errorf("semnet: node %d is %+v with %d links against %+v with %d", id, x, len(lx), y, len(ly))
		}
		for i, l := range lx {
			m := ly[i]
			if l.Rel != m.Rel || l.To != m.To || math.Float32bits(l.Weight) != math.Float32bits(m.Weight) {
				return fmt.Errorf("semnet: node %d link %d is %+v against %+v", id, i, l, m)
			}
		}
		ia, oka := a.index.find(a.names, x.Name)
		ib, okb := b.index.find(b.names, x.Name)
		if ia != ib || oka != okb {
			return fmt.Errorf("semnet: name %q resolves to node %d against %d", x.Name, ia, ib)
		}
	}
	switch {
	case a.nextRel != b.nextRel || !maps.Equal(a.relNames, b.relNames) || !maps.Equal(a.relByName, b.relByName):
		return fmt.Errorf("semnet: relation tables differ")
	case a.nextColor != b.nextColor || !maps.Equal(a.colorNames, b.colorNames) || !maps.Equal(a.colorByNm, b.colorByNm):
		return fmt.Errorf("semnet: color tables differ")
	case a.links.live() != b.links.live():
		return fmt.Errorf("semnet: %d links against %d", a.links.live(), b.links.live())
	case a.gen.Load() != b.gen.Load():
		return fmt.Errorf("semnet: generation %d against %d", a.gen.Load(), b.gen.Load())
	}
	return nil
}
