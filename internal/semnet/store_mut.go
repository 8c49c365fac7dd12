package semnet

import "fmt"

// Runtime node-maintenance operations (the CREATE / DELETE / SET-COLOR and
// MARKER-CREATE / MARKER-DELETE instruction group). They mutate a loaded
// partition in place; the machine serializes them against in-flight
// propagation exactly as the PU does.

// SetColor rewrites the node-table color of a local node.
func (s *Store) SetColor(local int, c Color) error {
	if local < 0 || local >= s.n {
		return fmt.Errorf("%w: local %d", ErrUnknownNode, local)
	}
	s.own()
	s.color[local] = c
	return nil
}

// SetFn rewrites the node-table propagation function of a local node
// (delta replay of a host-side KB.SetFn; there is no ISA
// instruction for it).
func (s *Store) SetFn(local int, fn FuncCode) error {
	if local < 0 || local >= s.n {
		return fmt.Errorf("%w: local %d", ErrUnknownNode, local)
	}
	s.own()
	s.fn[local] = fn
	return nil
}

// AddLink appends one relation-table entry at runtime. Unlike the host
// preprocessor, the array cannot split subnodes on the fly, so exceeding
// the slot budget is an error — the same limit the hardware has. In the
// CSR arena a row in the frozen base moves to the private slab first;
// there the node's block grows in place when it sits at the slab tail
// and is otherwise relocated there, leaving a hole for the next
// compaction.
func (s *Store) AddLink(local int, l Link) error {
	if local < 0 || local >= s.n {
		return fmt.Errorf("%w: local %d", ErrUnknownNode, local)
	}
	if int(s.rel.cnt[local]) >= RelationSlots {
		return fmt.Errorf("%w: node %d relation slots full", ErrCapacity, s.global[local])
	}
	s.own()
	s.rel.add(local, l)
	return nil
}

// RemoveLink deletes the first relation-table entry matching (rel, to) and
// reports whether one was found. The block, moved to the private slab
// first if it was in the frozen base, shrinks in place and the vacated
// tail slot becomes a hole (linkArena.removeAt).
func (s *Store) RemoveLink(local int, rel RelType, to NodeID) bool {
	if local < 0 || local >= s.n {
		return false
	}
	j := s.rel.find(local, rel, to)
	if j < 0 {
		return false
	}
	// own() copies the private slab verbatim and removeAt's thaw keeps
	// the row's order, so j stays valid.
	s.own()
	s.rel.removeAt(local, j)
	return true
}
