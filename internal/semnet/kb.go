package semnet

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Node is one row of the knowledge base's node table, by value: a
// concept's name, its color, the propagation function stored in the node
// table, and the node a preprocessor subnode continues. Its links are
// KB.Links.
type Node struct {
	Name   string
	Color  Color
	Fn     FuncCode
	Parent NodeID // the node a preprocessor subnode continues, else InvalidNode
}

// IsSubnode reports whether n was created by the fanout preprocessor.
func (n Node) IsSubnode() bool { return n.Parent != InvalidNode }

// KB is the logical knowledge base constructed on the host and downloaded
// into the array. It owns the name tables for nodes, relations and colors;
// the array stores only the binary-encoded tables.
//
// The node table is kept in columns indexed by NodeID — name, color,
// function, subnode parent — beside one CSR link arena, the layout each
// cluster store downloads into, and an open-addressed name index over
// the name column. No node is a heap object of its own.
//
// The KB is safe for concurrent use: a single writer may mutate it while
// readers resolve names or compile programs against it (mu). The online
// write path depends on this — the engine's dedicated writer machine
// mutates the master KB while replica compiles and collection name
// resolution keep reading it.
type KB struct {
	mu sync.RWMutex

	// Node table, one column per field.
	names  []string
	color  []Color
	fn     []FuncCode
	parent []NodeID // the node a preprocessor subnode continues, else InvalidNode
	links  linkArena
	index  nameIndex

	relNames   map[RelType]string
	relByName  map[string]RelType
	nextRel    RelType
	colorNames map[Color]string
	colorByNm  map[string]Color
	nextColor  Color

	// gen counts structural revisions: every mutation that could change a
	// query's result (node, link, color, function, or preprocessor change)
	// bumps it. Result caches key on it so entries from an older topology
	// can never satisfy a query against a newer one.
	gen atomic.Uint64

	// delta is the bounded mutation log for delta replay (delta.go;
	// disabled until EnableDeltaLog).
	delta deltaLog
}

// Generation reports the knowledge base's structural revision counter.
// Two calls returning the same value bracket a span with no topology
// mutations, so any query result computed inside the span is still valid.
func (kb *KB) Generation() uint64 { return kb.gen.Load() }

// NewKB returns an empty knowledge base.
func NewKB() *KB { return newKB(0) }

// newKB returns an empty knowledge base whose node columns and name index
// hold nodes nodes before they first grow.
func newKB(nodes int) *KB {
	kb := &KB{
		names:      make([]string, 0, nodes),
		color:      make([]Color, 0, nodes),
		fn:         make([]FuncCode, 0, nodes),
		parent:     make([]NodeID, 0, nodes),
		links:      newLinkArena(nodes),
		relNames:   make(map[RelType]string),
		relByName:  make(map[string]RelType),
		colorNames: make(map[Color]string),
		colorByNm:  make(map[string]Color),
	}
	if nodes > 0 {
		kb.index.reserve(nil, nodes)
	}
	return kb
}

// Errors reported by knowledge-base construction.
var (
	ErrDuplicateNode = errors.New("semnet: duplicate node name")
	ErrUnknownNode   = errors.New("semnet: unknown node")
	ErrCapacity      = errors.New("semnet: capacity exceeded")
)

// AddNode creates a node with the given name and color and returns its ID.
// Node creation reshapes the partition assignment, so it is logged as a
// rebuild record: loaded machines must re-download rather than patch.
func (kb *KB) AddNode(name string, color Color) (NodeID, error) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	id, err := kb.addNode(name, color)
	if err != nil {
		return InvalidNode, err
	}
	kb.commit(DeltaRec{Op: DeltaRebuild, Node: id})
	return id, nil
}

// addNode is the body of AddNode and Builder.AddNode: the caller holds
// kb.mu or owns kb alone, and counts the generation.
func (kb *KB) addNode(name string, color Color) (NodeID, error) {
	id, ok := kb.appendNode(name, color, FuncNop, InvalidNode)
	if !ok {
		return InvalidNode, fmt.Errorf("%w: %q", ErrDuplicateNode, name)
	}
	return id, nil
}

// appendNode adds a row to every node column and an empty block to the
// link arena, and reports false, adding nothing, when the name is taken.
func (kb *KB) appendNode(name string, color Color, fn FuncCode, parent NodeID) (NodeID, bool) {
	id := NodeID(len(kb.names))
	if !kb.index.insert(kb.names, name, id) {
		return InvalidNode, false
	}
	kb.names = append(kb.names, name)
	kb.color = append(kb.color, color)
	kb.fn = append(kb.fn, fn)
	kb.parent = append(kb.parent, parent)
	kb.links.addRow()
	return id, true
}

// commit bumps the generation for one mutation and logs it; the caller
// holds kb.mu.
func (kb *KB) commit(rec DeltaRec) {
	kb.gen.Add(1)
	kb.record(rec)
}

// MustAddNode is AddNode for construction code where duplicates are bugs.
func (kb *KB) MustAddNode(name string, color Color) NodeID {
	id, err := kb.AddNode(name, color)
	if err != nil {
		panic(err)
	}
	return id
}

// SetFn sets the node-table propagation function of node id.
func (kb *KB) SetFn(id NodeID, fn FuncCode) error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if err := kb.setFn(id, fn); err != nil {
		return err
	}
	kb.commit(DeltaRec{Op: DeltaSetFn, Node: id, Fn: fn})
	return nil
}

// setFn is the body of SetFn and Builder.SetFn.
func (kb *KB) setFn(id NodeID, fn FuncCode) error {
	if int(id) >= len(kb.names) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	kb.fn[id] = fn
	return nil
}

// SetColor rewrites the node-table color of node id. This is the KB-side
// mirror of the SET-COLOR instruction; the machine routes runtime color
// writes through it so the master KB and the loaded array stay equal.
func (kb *KB) SetColor(id NodeID, c Color) error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if int(id) >= len(kb.names) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if kb.color[id] == c {
		return nil
	}
	kb.color[id] = c
	kb.commit(DeltaRec{Op: DeltaSetColor, Node: id, Color: c})
	return nil
}

// AddLink appends an outgoing relation from -> to with the given type and
// weight. Fanout beyond RelationSlots is legal here; the Preprocess pass
// splits such nodes before download, as the paper's preprocessor does.
// The link arena is patched in place, as a cluster store's is.
func (kb *KB) AddLink(from NodeID, rel RelType, weight float32, to NodeID) error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	l := Link{Rel: rel, Weight: weight, To: to}
	if err := kb.checkLink(from, l); err != nil {
		return err
	}
	kb.links.add(int(from), l)
	kb.commit(DeltaRec{Op: DeltaAddLink, Node: from, Link: l})
	return nil
}

// checkLink is the rule of AddLink and Builder.AddLink: both ends exist.
func (kb *KB) checkLink(from NodeID, l Link) error {
	if int(from) >= len(kb.names) || int(l.To) >= len(kb.names) {
		return fmt.Errorf("%w: link %d->%d", ErrUnknownNode, from, l.To)
	}
	return nil
}

// MustAddLink is AddLink for construction code where failures are bugs.
func (kb *KB) MustAddLink(from NodeID, rel RelType, weight float32, to NodeID) {
	if err := kb.AddLink(from, rel, weight, to); err != nil {
		panic(err)
	}
}

// RemoveLink deletes from's first outgoing link matching (rel, to),
// preserving the order of the remaining links (the relation arena's
// first-match DELETE semantics), and reports whether a link was removed.
func (kb *KB) RemoveLink(from NodeID, rel RelType, to NodeID) bool {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if int(from) >= len(kb.names) {
		return false
	}
	j := kb.links.find(int(from), rel, to)
	if j < 0 {
		return false
	}
	kb.links.removeAt(int(from), j)
	kb.commit(DeltaRec{Op: DeltaRemoveLink, Node: from, Link: Link{Rel: rel, To: to}})
	return true
}

// Lookup resolves a node name to its ID.
func (kb *KB) Lookup(name string) (NodeID, bool) {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.index.find(kb.names, name)
}

// Node returns the node-table row of id.
func (kb *KB) Node(id NodeID) (Node, error) {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.nodeLocked(id)
}

func (kb *KB) nodeLocked(id NodeID) (Node, error) {
	if int(id) >= len(kb.names) {
		return Node{}, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return Node{Name: kb.names[id], Color: kb.color[id], Fn: kb.fn[id], Parent: kb.parent[id]}, nil
}

// Links returns node id's outgoing links in order, or nil for an unknown
// id. Read-only: the slice is a block of the KB's link arena, which later
// link mutations patch in place, so under concurrent writes the caller
// must hold the topology quiescent (the engine's one writer does).
func (kb *KB) Links(id NodeID) []Link {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.linksLocked(id)
}

func (kb *KB) linksLocked(id NodeID) []Link {
	if int(id) >= len(kb.names) {
		return nil
	}
	return kb.links.row(int(id))
}

// Name returns the node's name, or a synthesized placeholder for IDs out
// of range (collection results are never fatal).
func (kb *KB) Name(id NodeID) string {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.nameLocked(id)
}

func (kb *KB) nameLocked(id NodeID) string {
	if int(id) < len(kb.names) {
		return kb.names[id]
	}
	return fmt.Sprintf("node#%d", id)
}

// Canonical maps a preprocessor subnode back to the concept it continues;
// non-subnode IDs map to themselves.
func (kb *KB) Canonical(id NodeID) NodeID {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.canonicalLocked(id)
}

func (kb *KB) canonicalLocked(id NodeID) NodeID {
	for int(id) < len(kb.parent) && kb.parent[id] != InvalidNode {
		id = kb.parent[id]
	}
	return id
}

// NumNodes reports the node count including preprocessor subnodes.
func (kb *KB) NumNodes() int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return len(kb.names)
}

// NumLinks reports the total number of relation-table entries.
func (kb *KB) NumLinks() int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.links.live()
}

// Relation interns a relation-type name, assigning the next free type.
// It panics when the type space is exhausted: construction code, where
// that is a bug. Code resolving names it did not choose uses
// LookupRelation or InternRelation.
func (kb *KB) Relation(name string) RelType { return mustRelation(kb.InternRelation(name)) }

// mustRelation is the panic of Relation and Builder.Relation.
func mustRelation(r RelType, err error) RelType {
	if err != nil {
		panic("semnet: relation type space exhausted")
	}
	return r
}

// InternRelation is Relation with the exhausted type space (RelCont is
// reserved) reported as ErrCapacity.
func (kb *KB) InternRelation(name string) (RelType, error) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.internRelation(name)
}

// internRelation is the body of InternRelation and Builder.InternRelation.
func (kb *KB) internRelation(name string) (RelType, error) {
	if r, ok := kb.relByName[name]; ok {
		return r, nil
	}
	r := kb.nextRel
	if r == RelCont {
		return 0, fmt.Errorf("%w: relation type space exhausted, cannot name %q", ErrCapacity, name)
	}
	kb.nextRel++
	kb.relByName[name] = r
	kb.relNames[r] = name
	return r, nil
}

// LookupRelation resolves a relation-type name without interning it.
func (kb *KB) LookupRelation(name string) (RelType, bool) {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	r, ok := kb.relByName[name]
	return r, ok
}

// RelationName returns the interned name for r, or a numeric placeholder.
func (kb *KB) RelationName(r RelType) string {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.relationNameLocked(r)
}

func (kb *KB) relationNameLocked(r RelType) string {
	if n, ok := kb.relNames[r]; ok {
		return n
	}
	if r == RelCont {
		return "<cont>"
	}
	return fmt.Sprintf("rel#%d", r)
}

// ColorFor interns a color name, assigning the next free color. Like
// Relation it panics when the space is exhausted; see LookupColor and
// InternColor.
func (kb *KB) ColorFor(name string) Color { return mustColor(kb.InternColor(name)) }

// mustColor is the panic of ColorFor and Builder.ColorFor.
func mustColor(c Color, err error) Color {
	if err != nil {
		panic("semnet: color space exhausted")
	}
	return c
}

// InternColor is ColorFor with the exhausted color space (ColorSubnode
// is reserved) reported as ErrCapacity.
func (kb *KB) InternColor(name string) (Color, error) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.internColor(name)
}

// internColor is the body of InternColor and Builder.InternColor.
func (kb *KB) internColor(name string) (Color, error) {
	if c, ok := kb.colorByNm[name]; ok {
		return c, nil
	}
	c := kb.nextColor
	if c == ColorSubnode {
		return 0, fmt.Errorf("%w: color space exhausted, cannot name %q", ErrCapacity, name)
	}
	kb.nextColor++
	kb.colorByNm[name] = c
	kb.colorNames[c] = name
	return c, nil
}

// InternNames interns every relation name of rels and color name of
// colors, or, when the KB has no room for all of them, none: the names
// the call added are taken back before it returns the ErrCapacity. An
// interning assembler calls it once a program has assembled, so a
// program that fails grows no name space.
func (kb *KB) InternNames(rels, colors []string) error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	nextRel, nextColor := kb.nextRel, kb.nextColor
	var err error
	for _, name := range rels {
		if _, err = kb.internRelation(name); err != nil {
			break
		}
	}
	for _, name := range colors {
		if err != nil {
			break
		}
		_, err = kb.internColor(name)
	}
	if err != nil {
		for r := nextRel; r < kb.nextRel; r++ {
			delete(kb.relByName, kb.relNames[r])
			delete(kb.relNames, r)
		}
		for c := nextColor; c < kb.nextColor; c++ {
			delete(kb.colorByNm, kb.colorNames[c])
			delete(kb.colorNames, c)
		}
		kb.nextRel, kb.nextColor = nextRel, nextColor
	}
	return err
}

// LookupColor resolves a color name without interning it.
func (kb *KB) LookupColor(name string) (Color, bool) {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	c, ok := kb.colorByNm[name]
	return c, ok
}

// ColorName returns the interned name for c, or a numeric placeholder.
func (kb *KB) ColorName(c Color) string {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.colorNameLocked(c)
}

func (kb *KB) colorNameLocked(c Color) string {
	if n, ok := kb.colorNames[c]; ok {
		return n
	}
	if c == ColorSubnode {
		return "<subnode>"
	}
	return fmt.Sprintf("color#%d", c)
}

// View is a read-only window on the name tables, handed to the function
// passed to KB.View and valid only until that function returns.
type View struct{ kb *KB }

// View calls fn with the KB read-locked once for the whole call, so
// resolving every name of a result costs one lock pair, not one per
// lookup. fn must not call methods of kb itself.
func (kb *KB) View(fn func(View)) {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	fn(View{kb})
}

// Node is KB.Node.
func (v View) Node(id NodeID) (Node, error) { return v.kb.nodeLocked(id) }

// Links is KB.Links.
func (v View) Links(id NodeID) []Link { return v.kb.linksLocked(id) }

// CanonicalName is Name(Canonical(id)).
func (v View) CanonicalName(id NodeID) string {
	return v.kb.nameLocked(v.kb.canonicalLocked(id))
}

// RelationName is KB.RelationName.
func (v View) RelationName(r RelType) string { return v.kb.relationNameLocked(r) }

// ColorName is KB.ColorName.
func (v View) ColorName(c Color) string { return v.kb.colorNameLocked(c) }

// Names resolves a set of node IDs to sorted canonical concept names,
// deduplicating preprocessor subnodes.
func (kb *KB) Names(ids []NodeID) []string {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	seen := make(map[NodeID]bool, len(ids))
	var out []string
	for _, id := range ids {
		c := kb.canonicalLocked(id)
		if !seen[c] {
			seen[c] = true
			out = append(out, kb.nameLocked(c))
		}
	}
	sort.Strings(out)
	return out
}

// Preprocess splits every node whose fanout exceeds RelationSlots into a
// tree of continuation subnodes, as the paper's knowledge-base
// preprocessor does ("Nodes with fanout greater than 16 are divided into
// subnodes"). The original links are grouped into full subnode slot
// banks and the node keeps zero-weight RelCont links to them; groups of
// subnodes that still exceed the slot budget split again, so expansion of
// a wide node proceeds through a shallow tree whose subnodes can be
// processed in parallel rather than down a serial chain. Each subnode
// carries ColorSubnode, inherits the parent's propagation function and
// is named after its concept and its ID, skipping a name some node
// already has. The split happens inside the link arena (linkArena.split),
// and every column grows at most once, by exactly the subnodes it adds:
// not at all on a KB a Builder made, which sized them for Preprocess.
// Preprocess is idempotent.
func (kb *KB) Preprocess() {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	before := len(kb.names)
	extra := 0
	for id := range before {
		extra += subnodesFor(int(kb.links.cnt[id]))
	}
	if extra == 0 {
		return
	}
	kb.reserveNodes(extra)
	kb.links.reserve(0, extra) // one continuation link per subnode
	for id := 0; id < len(kb.names); id++ {
		// Appended subnodes extend the loop range and are re-checked;
		// a node whose continuation fanout still exceeds the budget is
		// revisited immediately.
		if kb.links.cnt[id] <= RelationSlots {
			continue
		}
		canonical := kb.names[kb.canonicalLocked(NodeID(id))]
		first := len(kb.names)
		for range (kb.links.cnt[id] + RelationSlots - 1) / RelationSlots {
			kb.appendSubnode(canonical, NodeID(id))
		}
		kb.links.split(id, first, RelationSlots)
		if kb.links.cnt[id] > RelationSlots {
			id-- // split this node's continuation links again
		}
	}
	kb.commit(DeltaRec{Op: DeltaRebuild})
}

// reserveNodes makes room for n more nodes in every node column and the
// name index, growing each at most once and to exactly that.
func (kb *KB) reserveNodes(n int) {
	kb.names = growExact(kb.names, n)
	kb.color = growExact(kb.color, n)
	kb.fn = growExact(kb.fn, n)
	kb.parent = growExact(kb.parent, n)
	kb.links.reserve(n, 0)
	kb.index.reserve(kb.names, len(kb.names)+n)
}

// appendSubnode appends a subnode continuing parent, link-less until
// linkArena.split gives it its bank. Its name is canonical~id, or, when a
// node already has that name, the first free canonical~id~k for k = 2,
// 3, ….
func (kb *KB) appendSubnode(canonical string, parent NodeID) {
	id := canonical + "~" + strconv.Itoa(len(kb.names))
	name := id
	for k := 2; ; k++ {
		if _, ok := kb.appendNode(name, ColorSubnode, kb.fn[parent], parent); ok {
			return
		}
		name = id + "~" + strconv.Itoa(k)
	}
}

// subnodesFor is the number of continuation subnodes Preprocess splits a
// node of fanout f into: a bank per RelationSlots links, and banks for
// the continuation links while those still exceed the slots.
func subnodesFor(f int) int {
	n := 0
	for f > RelationSlots {
		f = (f + RelationSlots - 1) / RelationSlots
		n += f
	}
	return n
}

// Validate checks structural invariants: every name resolves back to its
// own node, link targets exist, functions are defined, and no
// post-Preprocess node exceeds the slot budget. It returns the first
// violation found.
func (kb *KB) Validate() error {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	for id, name := range kb.names {
		if got, ok := kb.index.find(kb.names, name); !ok || got != NodeID(id) {
			return fmt.Errorf("semnet: node %d's name %q resolves to node %d", id, name, got)
		}
		links := kb.links.row(id)
		if len(links) > RelationSlots {
			return fmt.Errorf("semnet: node %q fanout %d exceeds %d slots (run Preprocess)",
				name, len(links), RelationSlots)
		}
		for _, l := range links {
			if int(l.To) >= len(kb.names) {
				return fmt.Errorf("semnet: node %q links to missing node %d", name, l.To)
			}
		}
		if !kb.fn[id].Valid() {
			return fmt.Errorf("semnet: node %q has invalid function %d", name, kb.fn[id])
		}
	}
	return nil
}
