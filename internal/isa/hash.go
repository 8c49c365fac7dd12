package isa

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Hash returns a 64-bit FNV-1a digest of the program: every instruction's
// operands in stream order, each PROPAGATE followed by the spec (kind, R1,
// R2) of the rule its token names. Programs that execute identically on
// the same knowledge base hash equally; the converse does not hold. FNV-1a
// is not collision-resistant, and a client who controls a program's text
// can construct a second program with the same 64 bits, so a cache or a
// deduplication keyed by the digest must compare what it matched before
// using it (the serving engine compares instruction streams and rule
// specs).
//
// The digest covers the rule itself, not its table token alone: the same
// token number bound to a different spec hashes differently.
//
// A sealed program (Seal) answers with the hash it was sealed with; any
// other program is hashed afresh on every call, so the value cannot go
// stale.
func (p *Program) Hash() uint64 {
	if p.sealed {
		return p.hash
	}
	return p.contentHash()
}

func (p *Program) contentHash() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	w32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		w32(uint32(in.Op) | uint32(in.Cond)<<8 | uint32(in.Fn)<<16 | uint32(in.Rule)<<24)
		w32(uint32(in.Node))
		w32(uint32(in.EndNode))
		w32(uint32(in.Rel) | uint32(in.RevRel)<<16)
		w32(uint32(in.M1) | uint32(in.M2)<<8 | uint32(in.M3)<<16 | boolBit(in.HasRev)<<24)
		w32(math.Float32bits(in.Weight))
		w32(math.Float32bits(in.Value))
		w32(uint32(in.Color))
		if in.Op == OpPropagate && p.Rules != nil {
			if rule := p.Rules.Rule(in.Rule); rule != nil {
				spec := rule.Spec()
				w32(uint32(spec.Kind))
				w32(uint32(spec.R1) | uint32(spec.R2)<<16)
			}
		}
	}
	return h.Sum64()
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
