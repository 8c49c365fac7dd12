package semnet

// CSRView is a flat compressed-sparse-row snapshot of the knowledge
// base's link structure, in both directions:
//
//   - node id's outgoing links occupy Links[Off[id]:Off[id+1]];
//   - the ids of the nodes linking INTO id occupy InFrom[InOff[id]:InOff[id+1]],
//     with InRel holding the corresponding relation types.
//
// Partitioning strategies and cut metrics walk these slabs instead of
// issuing one error-checked KB.Node call per node: the whole network is
// a handful of contiguous arrays, so a full sweep is a linear scan with
// no per-node overhead. The view is a snapshot — it reflects the KB at
// the generation it was built for and is immutable afterwards; callers
// must not modify the slices.
type CSRView struct {
	Off   []int32 // len NumNodes+1: out-link offsets into Links
	Links []Link  // all out-links, packed in ascending node order

	InOff  []int32   // len NumNodes+1: in-link offsets into InFrom/InRel
	InFrom []NodeID  // source node of each in-link
	InRel  []RelType // relation type of each in-link
}

// NumNodes reports the node count the view was built over.
func (v *CSRView) NumNodes() int { return len(v.Off) - 1 }

// Out returns node id's outgoing links (a sub-slice of the shared slab).
func (v *CSRView) Out(id NodeID) []Link {
	return v.Links[v.Off[id]:v.Off[id+1]]
}

// CSR builds the flat adjacency view of the knowledge base as of now.
// Building is O(nodes + links) with a fixed handful of allocations, and
// the view belongs to the caller: the KB keeps no reference to it, so a
// view lives only as long as the pass that asked for it. Each
// partitioning pass, cut metric or placement stage builds its own.
func (kb *KB) CSR() *CSRView {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	n := len(kb.names)
	v := &CSRView{
		Off:   make([]int32, n+1),
		Links: make([]Link, 0, kb.links.live()),
		InOff: make([]int32, n+1),
	}
	// Out-links: one append pass, offsets as we go.
	for id := 0; id < n; id++ {
		v.Off[id] = int32(len(v.Links))
		v.Links = append(v.Links, kb.links.row(id)...)
	}
	v.Off[n] = int32(len(v.Links))
	// In-links: counting sort over the out slab.
	for _, l := range v.Links {
		v.InOff[l.To+1]++
	}
	for id := 0; id < n; id++ {
		v.InOff[id+1] += v.InOff[id]
	}
	v.InFrom = make([]NodeID, len(v.Links))
	v.InRel = make([]RelType, len(v.Links))
	fill := make([]int32, n)
	for id := 0; id < n; id++ {
		for _, l := range v.Out(NodeID(id)) {
			at := v.InOff[l.To] + fill[l.To]
			v.InFrom[at] = NodeID(id)
			v.InRel[at] = l.Rel
			fill[l.To]++
		}
	}
	return v
}
