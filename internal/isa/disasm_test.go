package isa

import (
	"fmt"
	"strconv"
	"strings"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// disassemble renders in as one line of assembly, resolving names via kb.
// A PROPAGATE's rule renders through tbl as the kind(r1[,r2]) text that
// assembles back to it.
func disassemble(in *Instruction, kb *semnet.KB, tbl *rules.Table) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(in.Op.String()))
	emit := func(k, v string) { fmt.Fprintf(&b, " %s=%s", k, v) }
	mk := func(m semnet.MarkerID) string {
		if m.IsComplex() {
			return fmt.Sprintf("c%d", m)
		}
		return fmt.Sprintf("b%d", m-semnet.NumComplexMarkers)
	}
	switch in.Op {
	case OpCreate:
		emit("src", kb.Name(in.Node))
		emit("rel", kb.RelationName(in.Rel))
		emit("w", trimFloat(in.Weight))
		emit("dst", kb.Name(in.EndNode))
	case OpDelete:
		emit("src", kb.Name(in.Node))
		emit("rel", kb.RelationName(in.Rel))
		emit("dst", kb.Name(in.EndNode))
	case OpSetColor:
		emit("node", kb.Name(in.Node))
		emit("color", kb.ColorName(in.Color))
	case OpSearchNode:
		emit("node", kb.Name(in.Node))
		emit("marker", mk(in.M1))
		emit("value", trimFloat(in.Value))
	case OpSearchRelation:
		emit("rel", kb.RelationName(in.Rel))
		emit("marker", mk(in.M1))
		emit("value", trimFloat(in.Value))
	case OpSearchColor:
		emit("color", kb.ColorName(in.Color))
		emit("marker", mk(in.M1))
		emit("value", trimFloat(in.Value))
	case OpPropagate:
		emit("m1", mk(in.M1))
		emit("m2", mk(in.M2))
		name := fmt.Sprintf("token%d", in.Rule)
		if r := tbl.Rule(in.Rule); r != nil {
			spec := r.Spec()
			name = spec.Kind.String() + "(" + kb.RelationName(spec.R1)
			if spec.Kind.Arity() == 2 {
				name += "," + kb.RelationName(spec.R2)
			}
			name += ")"
		}
		emit("rule", name)
		emit("fn", in.Fn.String())
	case OpMarkerCreate, OpMarkerDelete:
		emit("marker", mk(in.M1))
		emit("rel", kb.RelationName(in.Rel))
		emit("dst", kb.Name(in.EndNode))
		if in.HasRev {
			emit("rev", kb.RelationName(in.RevRel))
		}
	case OpMarkerSetColor:
		emit("marker", mk(in.M1))
		emit("color", kb.ColorName(in.Color))
	case OpAndMarker, OpOrMarker:
		emit("m1", mk(in.M1))
		emit("m2", mk(in.M2))
		emit("m3", mk(in.M3))
		emit("fn", in.Fn.String())
	case OpNotMarker:
		emit("m1", mk(in.M1))
		emit("m2", mk(in.M2))
		emit("value", trimFloat(in.Value))
		emit("cond", in.Cond.String())
	case OpSetMarker:
		emit("marker", mk(in.M1))
		emit("value", trimFloat(in.Value))
	case OpClearMarker, OpCollectNode, OpCollectColor:
		emit("marker", mk(in.M1))
	case OpFuncMarker:
		emit("marker", mk(in.M1))
		emit("fn", in.Fn.String())
		emit("operand", trimFloat(in.Value))
	case OpCollectRelation:
		emit("marker", mk(in.M1))
		emit("rel", kb.RelationName(in.Rel))
	case OpCommEnd:
	}
	return b.String()
}

func trimFloat(f float32) string {
	return strconv.FormatFloat(float64(f), 'g', -1, 32)
}
