package isa

import (
	"fmt"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// Program is a straight-line stream of SNAP instructions plus the rule
// microcode table referenced by its PROPAGATE instructions. Application
// loop and branch flow runs on the controller's program control processor
// (in this reproduction: in the caller's Go code), so the broadcast stream
// itself carries no control transfer.
type Program struct {
	Instrs []Instruction
	Rules  *rules.Table

	// sealed programs are immutable and carry their content hash (see
	// Seal).
	sealed bool
	hash   uint64
}

// NewProgram returns an empty program with a fresh rule table.
func NewProgram() *Program {
	return &Program{Rules: rules.NewTable()}
}

// Len reports the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }

// Seal computes the program's content hash once and freezes the program:
// Hash returns the kept value from here on, and Add refuses. The owner of
// a shared program (the engine's compile cache) seals it before handing it
// out; nobody may write Instrs or Rules of a sealed program.
func (p *Program) Seal() {
	p.hash, p.sealed = p.contentHash(), true
}

// Add appends an already-formed instruction after validating it. A sealed
// program refuses it.
func (p *Program) Add(in Instruction) error {
	if p.sealed {
		return fmt.Errorf("%w: %s added to a sealed program", ErrBadProgram, in.Op)
	}
	if err := in.Validate(); err != nil {
		return err
	}
	p.Instrs = append(p.Instrs, in)
	return nil
}

func (p *Program) mustAdd(in Instruction) *Program {
	if err := p.Add(in); err != nil {
		panic(err)
	}
	return p
}

// Create emits CREATE source-node, relation, weight, end-node.
func (p *Program) Create(src semnet.NodeID, rel semnet.RelType, w float32, end semnet.NodeID) *Program {
	return p.mustAdd(Instruction{Op: OpCreate, Node: src, Rel: rel, Weight: w, EndNode: end})
}

// Delete emits DELETE source-node, relation, end-node.
func (p *Program) Delete(src semnet.NodeID, rel semnet.RelType, end semnet.NodeID) *Program {
	return p.mustAdd(Instruction{Op: OpDelete, Node: src, Rel: rel, EndNode: end})
}

// SetColor emits SET-COLOR node, color.
func (p *Program) SetColor(node semnet.NodeID, c semnet.Color) *Program {
	return p.mustAdd(Instruction{Op: OpSetColor, Node: node, Color: c})
}

// SearchNode emits SEARCH-NODE node, marker, value.
func (p *Program) SearchNode(node semnet.NodeID, m semnet.MarkerID, v float32) *Program {
	return p.mustAdd(Instruction{Op: OpSearchNode, Node: node, M1: m, Value: v})
}

// SearchRelation emits SEARCH-RELATION relation, marker, value.
func (p *Program) SearchRelation(rel semnet.RelType, m semnet.MarkerID, v float32) *Program {
	return p.mustAdd(Instruction{Op: OpSearchRelation, Rel: rel, M1: m, Value: v})
}

// SearchColor emits SEARCH-COLOR color, marker, value.
func (p *Program) SearchColor(c semnet.Color, m semnet.MarkerID, v float32) *Program {
	return p.mustAdd(Instruction{Op: OpSearchColor, Color: c, M1: m, Value: v})
}

// Propagate emits PROPAGATE marker-1, marker-2, rule, function, interning
// the rule spec in the program's rule table.
func (p *Program) Propagate(m1, m2 semnet.MarkerID, spec rules.Spec, fn semnet.FuncCode) *Program {
	tok, err := p.Rules.Add(spec)
	if err != nil {
		panic(err)
	}
	return p.mustAdd(Instruction{Op: OpPropagate, M1: m1, M2: m2, Rule: tok, Fn: fn})
}

// PropagateCustom emits PROPAGATE with a custom-built rule FSM.
func (p *Program) PropagateCustom(m1, m2 semnet.MarkerID, rule *rules.Compiled, fn semnet.FuncCode) *Program {
	tok, err := p.Rules.AddCustom(rule)
	if err != nil {
		panic(err)
	}
	return p.mustAdd(Instruction{Op: OpPropagate, M1: m1, M2: m2, Rule: tok, Fn: fn})
}

// MarkerCreate emits MARKER-CREATE marker, forward-relation, end-node,
// reverse-relation. Pass hasRev=false to omit the reverse link.
func (p *Program) MarkerCreate(m semnet.MarkerID, rel semnet.RelType, end semnet.NodeID, rev semnet.RelType, hasRev bool) *Program {
	return p.mustAdd(Instruction{Op: OpMarkerCreate, M1: m, Rel: rel, EndNode: end, RevRel: rev, HasRev: hasRev})
}

// MarkerDelete emits MARKER-DELETE marker, forward-relation, end-node,
// reverse-relation.
func (p *Program) MarkerDelete(m semnet.MarkerID, rel semnet.RelType, end semnet.NodeID, rev semnet.RelType, hasRev bool) *Program {
	return p.mustAdd(Instruction{Op: OpMarkerDelete, M1: m, Rel: rel, EndNode: end, RevRel: rev, HasRev: hasRev})
}

// MarkerSetColor emits MARKER-SET-COLOR marker, color.
func (p *Program) MarkerSetColor(m semnet.MarkerID, c semnet.Color) *Program {
	return p.mustAdd(Instruction{Op: OpMarkerSetColor, M1: m, Color: c})
}

// And emits AND-MARKER marker-1, marker-2, marker-3, function.
func (p *Program) And(m1, m2, m3 semnet.MarkerID, fn semnet.FuncCode) *Program {
	return p.mustAdd(Instruction{Op: OpAndMarker, M1: m1, M2: m2, M3: m3, Fn: fn})
}

// Or emits OR-MARKER marker-1, marker-2, marker-3, function.
func (p *Program) Or(m1, m2, m3 semnet.MarkerID, fn semnet.FuncCode) *Program {
	return p.mustAdd(Instruction{Op: OpOrMarker, M1: m1, M2: m2, M3: m3, Fn: fn})
}

// Not emits NOT-MARKER marker-1, marker-2, value, condition.
func (p *Program) Not(m1, m2 semnet.MarkerID, v float32, cond Condition) *Program {
	return p.mustAdd(Instruction{Op: OpNotMarker, M1: m1, M2: m2, Value: v, Cond: cond})
}

// Set emits SET-MARKER marker, value.
func (p *Program) Set(m semnet.MarkerID, v float32) *Program {
	return p.mustAdd(Instruction{Op: OpSetMarker, M1: m, Value: v})
}

// ClearM emits CLEAR-MARKER marker.
func (p *Program) ClearM(m semnet.MarkerID) *Program {
	return p.mustAdd(Instruction{Op: OpClearMarker, M1: m})
}

// Func emits FUNC-MARKER marker, function, operand.
func (p *Program) Func(m semnet.MarkerID, fn semnet.FuncCode, operand float32) *Program {
	return p.mustAdd(Instruction{Op: OpFuncMarker, M1: m, Fn: fn, Value: operand})
}

// CollectNode emits COLLECT-NODE marker.
func (p *Program) CollectNode(m semnet.MarkerID) *Program {
	return p.mustAdd(Instruction{Op: OpCollectNode, M1: m})
}

// CollectRelation emits COLLECT-RELATION marker, relation.
func (p *Program) CollectRelation(m semnet.MarkerID, rel semnet.RelType) *Program {
	return p.mustAdd(Instruction{Op: OpCollectRelation, M1: m, Rel: rel})
}

// CollectColor emits COLLECT-COLOR marker.
func (p *Program) CollectColor(m semnet.MarkerID) *Program {
	return p.mustAdd(Instruction{Op: OpCollectColor, M1: m})
}

// Barrier emits COMM-END, forcing all in-flight propagation to terminate
// before the next instruction issues.
func (p *Program) Barrier() *Program {
	return p.mustAdd(Instruction{Op: OpCommEnd})
}

// Validate re-checks every instruction and rule token. All failures wrap
// ErrBadProgram.
func (p *Program) Validate() error {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if err := in.Validate(); err != nil {
			return fmt.Errorf("instruction %d: %w", i, err)
		}
		if in.Op == OpPropagate && p.Rules.Rule(in.Rule) == nil {
			return fmt.Errorf("instruction %d: %w: rule token %d not in table", i, ErrBadProgram, in.Rule)
		}
	}
	return nil
}

// Mutating reports whether any instruction alters network topology.
func (p *Program) Mutating() bool {
	for i := range p.Instrs {
		if p.Instrs[i].Mutating() {
			return true
		}
	}
	return false
}
