package isa

import (
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
// key=value operands, each of them one the opcode takes; '#' starts a
// comment. Node, relation and color operands are resolved by name against
// the knowledge base (a node also by its number). A name the KB does not
// hold is an error, except where the instruction writes it into the
// network: the relation of create and marker-create, the color of
// set-color and marker-set-color. Markers are written c0..c63 (complex),
// b0..b63 (binary), or m<k> as an alias for c<k>. Example:
//
//	search-node node=we marker=c1 value=0
//	propagate m1=c1 m2=c2 rule=spread(is-a,last) fn=add
//	collect-node marker=c2
type Assembler struct {
	kb     *semnet.KB
	intern bool // a writing operand may bring its name into kb
}

// NewAssembler returns an assembler resolving names against kb.
func NewAssembler(kb *semnet.KB) *Assembler { return &Assembler{kb: kb, intern: true} }

// LookupOnly returns an assembler over the same knowledge base that never
// adds a name to it: a writing operand's unknown name is the error it is
// everywhere else. It is for a door that cannot commit what it assembles
// (the query engine's read endpoints), where a refused program must not
// have grown — or exhausted — the KB's name space on the way.
func (a *Assembler) LookupOnly() *Assembler { return &Assembler{kb: a.kb} }

// maxLineBytes bounds one line of assembly, newline included.
const maxLineBytes = 64 << 10

// maxPresize caps the instruction capacity AssembleString reserves from
// the line count.
const maxPresize = 64

// Assemble drains r and parses it as a full program.
func (a *Assembler) Assemble(r io.Reader) (*Program, error) {
	var src strings.Builder
	if _, err := io.Copy(&src, r); err != nil {
		return nil, err
	}
	return a.AssembleString(src.String())
}

// AssembleString parses a full program from src, in place: one pass over
// the text, nothing copied out of it. Every rejection wraps ErrBadProgram.
func (a *Assembler) AssembleString(src string) (*Program, error) {
	p := NewProgram()
	// Sized once, to the lines that hold an instruction, so a sealed
	// program keeps no spare room; the cap keeps a long body that fails
	// early from reserving room for instructions it never assembles.
	p.Instrs = make([]Instruction, 0, min(instrLines(src), maxPresize))
	for lineNo := 1; src != ""; lineNo++ {
		var line string
		line, src = cutLine(src)
		if len(line) >= maxLineBytes {
			return nil, fmt.Errorf("%w: line %d is longer than %d bytes", ErrBadProgram, lineNo, maxLineBytes-1)
		}
		if line = code(line); line == "" {
			continue
		}
		if err := a.assembleLine(p, line); err != nil {
			return nil, fmt.Errorf("%w: line %d: %w", ErrBadProgram, lineNo, err)
		}
	}
	return p, nil
}

// instrLines counts the lines of src that hold an instruction.
func instrLines(src string) int {
	n := 0
	for src != "" {
		var line string
		line, src = cutLine(src)
		if code(line) != "" {
			n++
		}
	}
	return n
}

// cutLine cuts the first line, without its newline, off src.
func cutLine(src string) (line, rest string) {
	if i := strings.IndexByte(src, '\n'); i >= 0 {
		return src[:i], src[i+1:]
	}
	return src, ""
}

// code is what an assembly line says: the line ahead of any '#',
// trimmed of white space.
func code(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
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
// allocating the slice. Space and tab split printable ASCII here; a line
// holding any other control byte or a non-ASCII one is split by
// unicode.IsSpace from that field on.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	s = s[i:]
	for i = 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ' || c == '\t':
			return s[:i], s[i:]
		case c < '!' || c > '~':
			return nextFieldUnicode(s)
		}
	}
	return s, ""
}

// nextFieldUnicode is nextField by unicode.IsSpace alone.
func nextFieldUnicode(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// lineAsm is one line being assembled: the instruction so far and the
// rule= operand, which becomes a token once the whole line has parsed.
type lineAsm struct {
	in      Instruction
	rule    rules.Spec
	hasRule bool
}

func (a *Assembler) assembleLine(p *Program, line string) error {
	name, rest := nextField(line)
	op, ok := opByName[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("unknown opcode %q", name)
	}
	l := lineAsm{in: Instruction{Op: op}}
	for f, rest := nextField(rest); f != ""; f, rest = nextField(rest) {
		key, val, found := strings.Cut(f, "=")
		if !found {
			return fmt.Errorf("operand %q is not key=value", f)
		}
		if err := a.setOperand(&l, key, val); err != nil {
			return err
		}
	}
	if op == OpPropagate {
		if !l.hasRule {
			return fmt.Errorf("propagate requires rule=")
		}
		tok, err := p.Rules.Add(l.rule)
		if err != nil {
			return err
		}
		l.in.Rule = tok
	}
	return p.Add(l.in)
}

// operand is one operand position of Table II; operandsOf lists the
// positions each opcode takes. An operand the opcode does not take is an
// error rather than a field silently carried into the program's hash.
type operand uint16

const (
	opdNode operand = 1 << iota
	opdEnd
	opdRel
	opdRev
	opdColor
	opdM1
	opdM2
	opdM3
	opdValue
	opdWeight
	opdFn
	opdCond
	opdRule
)

var operandsOf = [NumOpcodes]operand{
	OpCreate:          opdNode | opdRel | opdWeight | opdEnd,
	OpDelete:          opdNode | opdRel | opdEnd,
	OpSetColor:        opdNode | opdColor,
	OpSearchNode:      opdNode | opdM1 | opdValue,
	OpSearchRelation:  opdRel | opdM1 | opdValue,
	OpSearchColor:     opdColor | opdM1 | opdValue,
	OpPropagate:       opdM1 | opdM2 | opdRule | opdFn,
	OpMarkerCreate:    opdM1 | opdRel | opdEnd | opdRev,
	OpMarkerDelete:    opdM1 | opdRel | opdEnd | opdRev,
	OpMarkerSetColor:  opdM1 | opdColor,
	OpAndMarker:       opdM1 | opdM2 | opdM3 | opdFn,
	OpOrMarker:        opdM1 | opdM2 | opdM3 | opdFn,
	OpNotMarker:       opdM1 | opdM2 | opdValue | opdCond,
	OpSetMarker:       opdM1 | opdValue,
	OpClearMarker:     opdM1,
	OpFuncMarker:      opdM1 | opdFn | opdValue,
	OpCollectNode:     opdM1,
	OpCollectRelation: opdM1 | opdRel,
	OpCollectColor:    opdM1,
	OpCommEnd:         0,
}

func (a *Assembler) setOperand(l *lineAsm, key, val string) error {
	var opd operand
	switch strings.ToLower(key) {
	case "node", "source-node", "src":
		opd = opdNode
	case "end-node", "end", "dst":
		opd = opdEnd
	case "relation", "rel", "forward-relation":
		opd = opdRel
	case "reverse-relation", "rev":
		opd = opdRev
	case "color":
		opd = opdColor
	case "marker", "m1", "marker-1":
		opd = opdM1
	case "m2", "marker-2":
		opd = opdM2
	case "m3", "marker-3":
		opd = opdM3
	case "value", "operand":
		opd = opdValue
	case "weight", "w":
		opd = opdWeight
	case "fn", "function":
		opd = opdFn
	case "cond", "condition":
		opd = opdCond
	case "rule":
		opd = opdRule
	default:
		return fmt.Errorf("unknown operand key %q", key)
	}
	in := &l.in
	if operandsOf[in.Op]&opd == 0 {
		return fmt.Errorf("%s takes no %s operand", strings.ToLower(in.Op.String()), key)
	}
	var err error
	switch opd {
	case opdNode:
		in.Node, err = a.node(val)
	case opdEnd:
		in.EndNode, err = a.node(val)
	case opdRel:
		in.Rel, err = a.relation(val, in.Op == OpCreate || in.Op == OpMarkerCreate)
	case opdRev:
		in.RevRel, err = a.relation(val, in.Op == OpMarkerCreate)
		in.HasRev = true
	case opdColor:
		in.Color, err = a.color(val, in.Op == OpSetColor || in.Op == OpMarkerSetColor)
	case opdM1:
		in.M1, err = parseMarker(val)
	case opdM2:
		in.M2, err = parseMarker(val)
	case opdM3:
		in.M3, err = parseMarker(val)
	case opdValue:
		in.Value, err = parseFloat32("value", val)
	case opdWeight:
		in.Weight, err = parseFloat32("weight", val)
	case opdFn:
		in.Fn, err = parseFunc(val)
	case opdCond:
		in.Cond, err = parseCond(val)
	case opdRule:
		l.rule, err = a.parseRule(val)
		l.hasRule = true
	}
	return err
}

func parseFloat32(what, s string) (float32, error) {
	v, err := strconv.ParseFloat(s, 32)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %v", what, s, err)
	}
	return float32(v), nil
}

// relation resolves a relation-type name. Only an operand that writes
// the relation into the network (create) may bring a new name into the
// KB, and only on an assembler that interns; everywhere else an unknown
// name is an error, so that reading never grows — or exhausts — the name
// space.
func (a *Assembler) relation(name string, create bool) (semnet.RelType, error) {
	if create && a.intern {
		return a.kb.InternRelation(name)
	}
	if r, ok := a.kb.LookupRelation(name); ok {
		return r, nil
	}
	return 0, fmt.Errorf("unknown relation %q", name)
}

// color resolves a color name under the same rule as relation.
func (a *Assembler) color(name string, create bool) (semnet.Color, error) {
	if create && a.intern {
		return a.kb.InternColor(name)
	}
	if c, ok := a.kb.LookupColor(name); ok {
		return c, nil
	}
	return 0, fmt.Errorf("unknown color %q", name)
}

func (a *Assembler) node(name string) (semnet.NodeID, error) {
	if id, ok := a.kb.Lookup(name); ok {
		return id, nil
	}
	if n, err := strconv.ParseUint(name, 10, 32); err == nil && n < uint64(a.kb.NumNodes()) {
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
	var kind rules.Kind
	switch kindName := s[:open]; strings.ToLower(kindName) {
	case "step":
		kind = rules.KindStep
	case "path":
		kind = rules.KindPath
	case "spread":
		kind = rules.KindSpread
	case "seq":
		kind = rules.KindSeq
	case "comb":
		kind = rules.KindComb
	default:
		return rules.Spec{}, fmt.Errorf("unknown rule kind %q", kindName)
	}
	two := kind.Arity() == 2
	r1, r2, comma := strings.Cut(s[open+1:len(s)-1], ",")
	if comma != two || strings.Contains(r2, ",") {
		return rules.Spec{}, fmt.Errorf("rule %q has wrong arity", s)
	}
	spec := rules.Spec{Kind: kind}
	var err error
	if spec.R1, err = a.relation(strings.TrimSpace(r1), false); err != nil {
		return rules.Spec{}, err
	}
	if two {
		if spec.R2, err = a.relation(strings.TrimSpace(r2), false); err != nil {
			return rules.Spec{}, err
		}
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
				// A rule compiled from a spec renders as the text that
				// assembles back to it.
				if spec, ok := r.Spec(); ok {
					name = spec.Kind.String() + "(" + kb.RelationName(spec.R1)
					if spec.Kind.Arity() == 2 {
						name += "," + kb.RelationName(spec.R2)
					}
					name += ")"
				}
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
