// Package rules implements SNAP-1 propagation rules: the microcode that
// guides marker flow through the semantic network.
//
// A rule is a small finite-state machine over relation types. At each node
// a marker holds a rule state; every outgoing link whose relation type has
// a transition from that state is followed, moving the marker to the
// transition's next state at the destination node. A state with no
// transitions is terminal — the marker rests there.
//
// Rules are compiled into a table that is downloaded at program-load time
// (the paper downloads the microcode table at compile time), so in-flight
// marker activation messages need to carry only a single-byte rule token
// plus the current state, keeping messages fixed-size regardless of rule
// complexity.
package rules

import (
	"fmt"
	"sync/atomic"

	"snap1/internal/semnet"
)

// Kind selects one of the predefined rule shapes from the paper's
// rule-type(r1,r2) notation.
type Kind uint8

// Predefined rule kinds.
const (
	// KindStep follows a single link of type R1 and stops.
	KindStep Kind = iota
	// KindPath follows chains of R1 links.
	KindPath
	// KindSpread follows chains of R1 links until a link of type R2 is
	// encountered, at which point it switches to chains of R2 links —
	// the paper's example rule spread(r1,r2).
	KindSpread
	// KindSeq follows exactly one R1 link then exactly one R2 link.
	KindSeq
	// KindComb follows links of either type freely.
	KindComb
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindStep:
		return "step"
	case KindPath:
		return "path"
	case KindSpread:
		return "spread"
	case KindSeq:
		return "seq"
	case KindComb:
		return "comb"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Arity reports how many relation types a rule of kind k names: R2 is
// ignored by the single-relation kinds.
func (k Kind) Arity() int {
	switch k {
	case KindSpread, KindSeq, KindComb:
		return 2
	}
	return 1
}

// Spec names a rule to be compiled: a predefined kind over one or two
// relation types. R2 is ignored by single-relation kinds.
type Spec struct {
	Kind   Kind
	R1, R2 semnet.RelType
}

// Step returns the spec for a single R1 hop.
func Step(r1 semnet.RelType) Spec { return Spec{Kind: KindStep, R1: r1} }

// Path returns the spec for chains of R1 hops.
func Path(r1 semnet.RelType) Spec { return Spec{Kind: KindPath, R1: r1} }

// Spread returns the paper's spread(r1,r2) rule.
func Spread(r1, r2 semnet.RelType) Spec { return Spec{Kind: KindSpread, R1: r1, R2: r2} }

// Seq returns the one-R1-then-one-R2 rule.
func Seq(r1, r2 semnet.RelType) Spec { return Spec{Kind: KindSeq, R1: r1, R2: r2} }

// Comb returns the follow-either rule over R1 and R2.
func Comb(r1, r2 semnet.RelType) Spec { return Spec{Kind: KindComb, R1: r1, R2: r2} }

// State is a rule FSM state index carried by in-flight markers.
type State uint8

// Token identifies a compiled rule in the downloaded table. Messages carry
// the token, never the rule body ("each marker only needs to carry a
// single-byte token indicating the function to be performed").
type Token uint8

// MaxStates bounds rule FSM size so states pack into the fixed message.
const MaxStates = 16

// Transition is one FSM edge: on a link of type Rel, move to state Next.
type Transition struct {
	Rel  semnet.RelType
	Next State
}

// Compiled is a rule FSM ready for the marker units. It is immutable once
// built, so one Compiled may sit in any number of rule tables and be read
// by any number of running machines at once.
type Compiled struct {
	name   string
	states [][]Transition
	fp     uint64 // Fingerprint, fixed at construction

	// spec is what Compile lowered; fromSpec is false for a Builder rule.
	spec     Spec
	fromSpec bool
}

func newCompiled(name string, states [][]Transition) *Compiled {
	c := &Compiled{name: name, states: states}
	c.fp = c.fingerprint()
	return c
}

// Spec returns the spec the rule was compiled from; ok is false for a
// rule assembled by a Builder.
func (c *Compiled) Spec() (spec Spec, ok bool) { return c.spec, c.fromSpec }

// Name returns the rule's diagnostic name.
func (c *Compiled) Name() string { return c.name }

// NumStates reports the FSM size.
func (c *Compiled) NumStates() int { return len(c.states) }

// Next reports whether a link of type rel is followed from state s and,
// if so, the state the marker assumes at the destination.
func (c *Compiled) Next(s State, rel semnet.RelType) (State, bool) {
	if int(s) >= len(c.states) {
		return 0, false
	}
	for _, t := range c.states[s] {
		if t.Rel == rel {
			return t.Next, true
		}
	}
	return 0, false
}

// Terminal reports whether state s has no outgoing transitions.
func (c *Compiled) Terminal(s State) bool {
	return int(s) >= len(c.states) || len(c.states[s]) == 0
}

// Fingerprint returns a 64-bit FNV-1a digest of the FSM's transition
// structure. Two rules with equal fingerprints follow exactly the same
// links, so the digest participates in program content hashing.
func (c *Compiled) Fingerprint() uint64 { return c.fp }

func (c *Compiled) fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(len(c.states)))
	for s, ts := range c.states {
		mix(uint64(s))
		for _, t := range ts {
			mix(uint64(t.Rel)<<8 | uint64(t.Next))
		}
	}
	return h
}

// Compile lowers a Spec to its FSM.
func Compile(spec Spec) (*Compiled, error) {
	var states [][]Transition
	switch spec.Kind {
	case KindStep:
		states = [][]Transition{
			{{Rel: spec.R1, Next: 1}},
			nil,
		}
	case KindPath:
		states = [][]Transition{
			{{Rel: spec.R1, Next: 0}},
		}
	case KindSpread:
		states = [][]Transition{
			{{Rel: spec.R1, Next: 0}, {Rel: spec.R2, Next: 1}},
			{{Rel: spec.R2, Next: 1}},
		}
	case KindSeq:
		states = [][]Transition{
			{{Rel: spec.R1, Next: 1}},
			{{Rel: spec.R2, Next: 2}},
			nil,
		}
	case KindComb:
		states = [][]Transition{
			{{Rel: spec.R1, Next: 0}, {Rel: spec.R2, Next: 0}},
		}
	default:
		return nil, fmt.Errorf("rules: unknown kind %d", spec.Kind)
	}
	c := newCompiled(fmt.Sprintf("%s(%d,%d)", spec.Kind, spec.R1, spec.R2), states)
	c.spec, c.fromSpec = spec, true
	return c, nil
}

// interned memoizes Compile by Spec for every rule table in the process:
// the same few specs (path(is-a), …) head almost every query, and their
// FSMs are immutable. The table is direct-mapped and never grows — a slot
// holds the last spec that hashed to it, so a collision or a lost race
// costs one recompile and nothing else.
var interned [256]atomic.Pointer[internedRule]

type internedRule struct {
	spec Spec
	rule *Compiled
}

func compileInterned(spec Spec) (*Compiled, error) {
	h := (uint(spec.Kind)*31+uint(spec.R1))*31 + uint(spec.R2)
	slot := &interned[h%uint(len(interned))]
	if e := slot.Load(); e != nil && e.spec == spec {
		return e.rule, nil
	}
	c, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	slot.Store(&internedRule{spec: spec, rule: c})
	return c, nil
}

// Builder assembles a custom rule FSM state by state.
type Builder struct {
	name   string
	states [][]Transition
	err    error
}

// NewBuilder starts a custom rule with the given diagnostic name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// On adds a transition from state s: follow links of type rel and assume
// state next at the destination. States are created on demand.
func (b *Builder) On(s State, rel semnet.RelType, next State) *Builder {
	if b.err != nil {
		return b
	}
	if s >= MaxStates || next >= MaxStates {
		b.err = fmt.Errorf("rules: state exceeds MaxStates (%d)", MaxStates)
		return b
	}
	hi := s
	if next > hi {
		hi = next
	}
	for len(b.states) <= int(hi) {
		b.states = append(b.states, nil)
	}
	for _, t := range b.states[s] {
		if t.Rel == rel {
			b.err = fmt.Errorf("rules: duplicate transition on relation %d from state %d", rel, s)
			return b
		}
	}
	b.states[s] = append(b.states[s], Transition{Rel: rel, Next: next})
	return b
}

// Build finalizes the custom rule.
func (b *Builder) Build() (*Compiled, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.states) == 0 {
		return nil, fmt.Errorf("rules: rule %q has no states", b.name)
	}
	// Copy, so a builder used again cannot reach into the built rule.
	states := make([][]Transition, len(b.states))
	for s, ts := range b.states {
		states[s] = append([]Transition(nil), ts...)
	}
	return newCompiled(b.name, states), nil
}

// Table is the per-program rule microcode table, downloaded to every
// cluster before execution. Token 0 is reserved as "no rule".
type Table struct {
	rules  []*Compiled
	bySpec []specToken // the specs Add interned, in token order
}

// specToken is one spec Add interned and the token it got. A table holds
// at most 255 rules, and a program names a few, so Add finds a spec by
// scanning these pairs: a map would cost a sealed program more than its
// rules.
type specToken struct {
	spec Spec
	tok  Token
}

// NewTable returns an empty rule table, with room for its first rule:
// most programs name one.
func NewTable() *Table {
	return &Table{rules: make([]*Compiled, 1, 2)}
}

// Add compiles and interns spec, returning its message token. Identical
// specs share a token; a rule AddCustom appended is not one of them, even
// when it was compiled from spec.
func (t *Table) Add(spec Spec) (Token, error) {
	for _, st := range t.bySpec {
		if st.spec == spec {
			return st.tok, nil
		}
	}
	c, err := compileInterned(spec)
	if err != nil {
		return 0, err
	}
	tok, err := t.AddCustom(c)
	if err != nil {
		return 0, err
	}
	t.bySpec = append(t.bySpec, specToken{spec, tok})
	return tok, nil
}

// AddCustom appends a built rule under a token of its own, every time it
// is called.
func (t *Table) AddCustom(c *Compiled) (Token, error) {
	if len(t.rules) >= 256 {
		return 0, fmt.Errorf("rules: table full (255 rules)")
	}
	tok := Token(len(t.rules))
	t.rules = append(t.rules, c)
	return tok, nil
}

// Rule resolves a token to its compiled FSM, or nil for token 0 or an
// unknown token.
func (t *Table) Rule(tok Token) *Compiled {
	if int(tok) >= len(t.rules) {
		return nil
	}
	return t.rules[tok]
}

// Len reports the number of interned rules (excluding the reserved 0).
func (t *Table) Len() int { return len(t.rules) - 1 }
