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

// Transition is one FSM edge: on a link of type Rel, move to state Next.
type Transition struct {
	Rel  semnet.RelType
	Next State
}

// Compiled is a rule FSM ready for the marker units. It is immutable once
// compiled, so one Compiled may sit in any number of rule tables and be
// read by any number of running machines at once.
type Compiled struct {
	spec   Spec
	states [][]Transition
}

// Spec returns the spec the rule was compiled from.
func (c *Compiled) Spec() Spec { return c.spec }

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
	return &Compiled{spec: spec, states: states}, nil
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
// when it was compiled from spec. A single-relation kind's R2 is put to 0
// first, so step(r1) written with a stray R2 is step(r1).
func (t *Table) Add(spec Spec) (Token, error) {
	if spec.Kind.Arity() == 1 {
		spec.R2 = 0
	}
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

// AddCustom appends a compiled rule under a token of its own, every time
// it is called: isa.Fuse gives each member PROPAGATE its own token with
// it, and it goes with fusion (ROADMAP item 1a).
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
