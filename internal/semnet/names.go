package semnet

import "hash/maphash"

// nameIndex resolves node names to IDs over the knowledge base's name
// column: an open-addressed hash table of int32 slots with linear
// probing, where a slot holds id+1 and 0 marks it empty. The strings
// stay in the column; the index holds none of its own. It is kept at
// most half full, so probe runs stay short, and doubles when an insert
// would pass that. Nodes are never deleted, so there are no tombstones.
type nameIndex struct {
	seed  maphash.Seed
	slots []int32
}

// find returns the ID of the node named name.
func (x *nameIndex) find(names []string, name string) (NodeID, bool) {
	if len(x.slots) == 0 {
		return InvalidNode, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := maphash.String(x.seed, name) & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return InvalidNode, false
		}
		if names[s-1] == name {
			return NodeID(s - 1), true
		}
	}
}

// insert indexes id under name and reports whether it did: a name
// already indexed is refused and the index left as it was. names holds
// the names of every indexed ID; name becomes names[id] after the call.
func (x *nameIndex) insert(names []string, name string, id NodeID) bool {
	x.reserve(names, int(id)+1)
	mask := uint64(len(x.slots) - 1)
	i := maphash.String(x.seed, name) & mask
	for ; x.slots[i] != 0; i = (i + 1) & mask {
		if names[x.slots[i]-1] == name {
			return false
		}
	}
	x.slots[i] = int32(id) + 1
	return true
}

// reserve makes room for n names in all, rehashing the indexed ones into
// a larger table at most once.
func (x *nameIndex) reserve(names []string, n int) {
	if 2*n <= len(x.slots) {
		return
	}
	size := 8
	for size < 2*n {
		size *= 2
	}
	if len(x.slots) == 0 {
		x.seed = maphash.MakeSeed()
	}
	old := x.slots
	x.slots = make([]int32, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := maphash.String(x.seed, names[s-1]) & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}
