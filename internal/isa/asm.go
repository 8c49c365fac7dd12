package isa

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// Assembler parses the textual SNAP assembly accepted by cmd/snapsim.
//
// One instruction per line, lower- or upper-case opcode followed by
// key=value operands; '#' starts a comment. Node, relation and color
// operands are resolved by name against the knowledge base. Markers are
// written c0..c63 (complex), b0..b63 (binary), or m<k> as an alias for
// c<k>. Example:
//
//	search-node node=we marker=c1 value=0
//	propagate m1=c1 m2=c2 rule=spread(is-a,last) fn=add
//	collect-node marker=c2
type Assembler struct {
	kb *semnet.KB
}

// NewAssembler returns an assembler resolving names against kb.
func NewAssembler(kb *semnet.KB) *Assembler { return &Assembler{kb: kb} }

// Assemble parses a full program from r.
func (a *Assembler) Assemble(r io.Reader) (*Program, error) {
	p := NewProgram()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := a.assembleLine(p, line); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadProgram, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for op := 0; op < NumOpcodes; op++ {
		m[strings.ToLower(Opcode(op).String())] = Opcode(op)
	}
	m["collect-marker"] = OpCollectNode // Table II name for COLLECT-NODE
	return m
}()

// nextField cuts the first whitespace-separated field off s. Calling it
// until field is empty yields what strings.Fields(s) holds, without
// allocating the slice.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

func (a *Assembler) assembleLine(p *Program, line string) error {
	name, rest := nextField(line)
	op, ok := opByName[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("unknown opcode %q", name)
	}
	in := Instruction{Op: op}
	var ruleSpec *rules.Spec
	for f, rest := nextField(rest); f != ""; f, rest = nextField(rest) {
		key, val, found := strings.Cut(f, "=")
		if !found {
			return fmt.Errorf("operand %q is not key=value", f)
		}
		if err := a.setOperand(&in, &ruleSpec, key, val); err != nil {
			return err
		}
	}
	if op == OpPropagate {
		if ruleSpec == nil {
			return fmt.Errorf("propagate requires rule=")
		}
		tok, err := p.Rules.Add(*ruleSpec)
		if err != nil {
			return err
		}
		in.Rule = tok
	}
	return p.Add(in)
}

func (a *Assembler) setOperand(in *Instruction, ruleSpec **rules.Spec, key, val string) error {
	switch strings.ToLower(key) {
	case "node", "source-node", "src":
		id, err := a.node(val)
		if err != nil {
			return err
		}
		in.Node = id
	case "end-node", "end", "dst":
		id, err := a.node(val)
		if err != nil {
			return err
		}
		in.EndNode = id
	case "relation", "rel", "forward-relation":
		in.Rel = a.kb.Relation(val)
	case "reverse-relation", "rev":
		in.RevRel = a.kb.Relation(val)
		in.HasRev = true
	case "color":
		in.Color = a.kb.ColorFor(val)
	case "marker", "m1", "marker-1":
		m, err := parseMarker(val)
		if err != nil {
			return err
		}
		in.M1 = m
	case "m2", "marker-2":
		m, err := parseMarker(val)
		if err != nil {
			return err
		}
		in.M2 = m
	case "m3", "marker-3":
		m, err := parseMarker(val)
		if err != nil {
			return err
		}
		in.M3 = m
	case "value", "operand":
		v, err := strconv.ParseFloat(val, 32)
		if err != nil {
			return fmt.Errorf("bad value %q: %v", val, err)
		}
		in.Value = float32(v)
	case "weight", "w":
		v, err := strconv.ParseFloat(val, 32)
		if err != nil {
			return fmt.Errorf("bad weight %q: %v", val, err)
		}
		in.Weight = float32(v)
	case "fn", "function":
		fn, err := parseFunc(val)
		if err != nil {
			return err
		}
		in.Fn = fn
	case "cond", "condition":
		c, err := parseCond(val)
		if err != nil {
			return err
		}
		in.Cond = c
	case "rule":
		spec, err := a.parseRule(val)
		if err != nil {
			return err
		}
		*ruleSpec = &spec
	default:
		return fmt.Errorf("unknown operand key %q", key)
	}
	return nil
}

func (a *Assembler) node(name string) (semnet.NodeID, error) {
	if id, ok := a.kb.Lookup(name); ok {
		return id, nil
	}
	if n, err := strconv.ParseUint(name, 10, 32); err == nil {
		return semnet.NodeID(n), nil
	}
	return semnet.InvalidNode, fmt.Errorf("unknown node %q", name)
}

func parseMarker(s string) (semnet.MarkerID, error) {
	if len(s) < 2 {
		return 0, fmt.Errorf("bad marker %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil {
		return 0, fmt.Errorf("bad marker %q", s)
	}
	switch s[0] {
	case 'c', 'm':
		if n < 0 || n >= semnet.NumComplexMarkers {
			return 0, fmt.Errorf("complex marker %q out of range", s)
		}
		return semnet.MarkerID(n), nil
	case 'b':
		if n < 0 || n >= semnet.NumBinaryMarkers {
			return 0, fmt.Errorf("binary marker %q out of range", s)
		}
		return semnet.Binary(n), nil
	}
	return 0, fmt.Errorf("bad marker %q (want c#, b#, or m#)", s)
}

func parseFunc(s string) (semnet.FuncCode, error) {
	switch strings.ToLower(s) {
	case "nop":
		return semnet.FuncNop, nil
	case "add":
		return semnet.FuncAdd, nil
	case "min":
		return semnet.FuncMin, nil
	case "max":
		return semnet.FuncMax, nil
	case "mul":
		return semnet.FuncMul, nil
	case "dec":
		return semnet.FuncDec, nil
	}
	return 0, fmt.Errorf("unknown function %q", s)
}

func parseCond(s string) (Condition, error) {
	switch strings.ToLower(s) {
	case "none":
		return CondNone, nil
	case "lt":
		return CondLT, nil
	case "le":
		return CondLE, nil
	case "gt":
		return CondGT, nil
	case "ge":
		return CondGE, nil
	case "eq":
		return CondEQ, nil
	case "ne":
		return CondNE, nil
	}
	return 0, fmt.Errorf("unknown condition %q", s)
}

func (a *Assembler) parseRule(s string) (rules.Spec, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return rules.Spec{}, fmt.Errorf("bad rule %q (want kind(r1[,r2]))", s)
	}
	kindName := s[:open]
	args := strings.Split(s[open+1:len(s)-1], ",")
	for i := range args {
		args[i] = strings.TrimSpace(args[i])
	}
	var kind rules.Kind
	two := false
	switch strings.ToLower(kindName) {
	case "step":
		kind = rules.KindStep
	case "path":
		kind = rules.KindPath
	case "spread":
		kind, two = rules.KindSpread, true
	case "seq":
		kind, two = rules.KindSeq, true
	case "comb":
		kind, two = rules.KindComb, true
	default:
		return rules.Spec{}, fmt.Errorf("unknown rule kind %q", kindName)
	}
	if two && len(args) != 2 || !two && len(args) != 1 {
		return rules.Spec{}, fmt.Errorf("rule %q has wrong arity", s)
	}
	spec := rules.Spec{Kind: kind, R1: a.kb.Relation(args[0])}
	if two {
		spec.R2 = a.kb.Relation(args[1])
	}
	return spec, nil
}

// Disassemble renders in as one line of assembly, resolving names via kb.
// Rule tokens render through the accompanying table (nil table allowed).
func Disassemble(in *Instruction, kb *semnet.KB, tbl *rules.Table) string {
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
		if tbl != nil {
			if r := tbl.Rule(in.Rule); r != nil {
				name = r.Name()
			}
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
