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
// (delta-sync replay of a host-side KB.SetFn; there is no ISA
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
// CSR arena the node's block grows in place when it sits at the slab
// tail and is otherwise relocated there, leaving a hole for the next
// compaction.
func (s *Store) AddLink(local int, l Link) error {
	if local < 0 || local >= s.n {
		return fmt.Errorf("%w: local %d", ErrUnknownNode, local)
	}
	if int(s.relCnt[local]) >= RelationSlots {
		return fmt.Errorf("%w: node %d relation slots full", ErrCapacity, s.global[local])
	}
	s.own()
	off, cnt := s.relOff[local], s.relCnt[local]
	if int(off)+int(cnt) == len(s.relLinks) {
		s.relLinks = append(s.relLinks, l)
	} else {
		s.relHoles += int(cnt)
		s.relOff[local] = int32(len(s.relLinks))
		s.relLinks = append(s.relLinks, s.relLinks[off:off+cnt]...)
		s.relLinks = append(s.relLinks, l)
	}
	s.relCnt[local] = cnt + 1
	s.maybeCompact()
	return nil
}

// RemoveLink deletes the first relation-table entry matching (rel, to) and
// reports whether one was found. The block shrinks in place and the
// vacated tail slot becomes a hole, also when the block ends the slab:
// the slab never gets shorter, because a link-less node added after the
// block keeps its offset at the old slab end.
func (s *Store) RemoveLink(local int, rel RelType, to NodeID) bool {
	if local < 0 || local >= s.n {
		return false
	}
	off, cnt := int(s.relOff[local]), int(s.relCnt[local])
	for i := off; i < off+cnt; i++ {
		if s.relLinks[i].Rel == rel && s.relLinks[i].To == to {
			s.own()
			// own() may have re-materialized the slab; the offsets are
			// copied verbatim, so i stays valid.
			copy(s.relLinks[i:off+cnt-1], s.relLinks[i+1:off+cnt])
			s.relHoles++
			s.relCnt[local] = int32(cnt - 1)
			s.maybeCompact()
			return true
		}
	}
	return false
}
