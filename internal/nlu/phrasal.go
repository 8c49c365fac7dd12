// Package nlu implements the paper's two-stage natural language
// understanding application: a serial phrasal parser that runs on the
// controller and breaks the input sentence into phrases, and a
// memory-based parser that recognizes concept sequences in the knowledge
// base by marker propagation (Section IV, Tables III/IV).
package nlu

import (
	"fmt"
	"strings"

	"snap1/internal/kbgen"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// PhraseType classifies a chunk produced by the phrasal parser.
type PhraseType uint8

// Phrase types.
const (
	PhraseNP  PhraseType = iota // noun phrase
	PhraseVP                    // verb phrase
	PhrasePP                    // prepositional phrase
	PhraseAdv                   // adverbial
	PhraseOther
)

func (t PhraseType) String() string {
	switch t {
	case PhraseNP:
		return "NP"
	case PhraseVP:
		return "VP"
	case PhrasePP:
		return "PP"
	case PhraseAdv:
		return "ADVP"
	default:
		return "X"
	}
}

// Phrase is one chunk: its type, surface tokens, and the content words the
// memory-based parser will activate (determiners and auxiliaries are
// absorbed here and never reach the array).
type Phrase struct {
	Type    PhraseType
	Tokens  []string
	Content []semnet.NodeID
}

// Phrasal parser cost model (controller clock domain). The phrasal parser
// is a serial program on the controller, so its time is set by sentence
// length and is independent of knowledge-base size — the property Table IV
// separates P.P. time from M.B. time to show.
const (
	ppCyclesPerToken  = 1400 // lexicon lookup + tag
	ppCyclesPerPhrase = 900  // chunk assembly
	ppCyclesFixed     = 2200 // sentence setup and teardown
)

// Chunk runs the phrasal parser over the token sequence, resolving
// parts of speech against the knowledge base's lexicon and grouping
// tokens into NP/VP/PP/ADVP chunks. It returns the phrases and the
// simulated serial controller time consumed.
func Chunk(g *kbgen.Generated, words []string) ([]Phrase, timing.Time, error) {
	var phrases []Phrase
	var cur *Phrase
	flush := func() {
		if cur != nil && len(cur.Tokens) > 0 {
			phrases = append(phrases, *cur)
		}
		cur = nil
	}
	start := func(t PhraseType) {
		flush()
		cur = &Phrase{Type: t}
	}

	cycles := int64(ppCyclesFixed)
	for _, w := range words {
		cycles += ppCyclesPerToken
		id, ok := g.KB.Lookup(w)
		if !ok {
			return nil, 0, fmt.Errorf("nlu: word %q not in lexicon", w)
		}
		cat := posOf(g, id)
		content := true
		switch cat {
		case "det", "aux-verb":
			content = false
			if cur == nil || cur.Type != PhraseNP {
				start(PhraseNP)
			}
		case "noun", "adj", "pronoun":
			if cur == nil || (cur.Type != PhraseNP && cur.Type != PhrasePP) {
				start(PhraseNP)
			}
		case "verb":
			start(PhraseVP)
		case "prep":
			start(PhrasePP)
		case "adv":
			start(PhraseAdv)
		default:
			start(PhraseOther)
		}
		if cur == nil {
			start(PhraseOther)
		}
		cur.Tokens = append(cur.Tokens, w)
		if content {
			cur.Content = append(cur.Content, id)
		}
	}
	flush()
	cycles += ppCyclesPerPhrase * int64(len(phrases))
	return phrases, timing.ControllerClock.Cycles(cycles), nil
}

// posOf resolves a lexical node's part of speech: the is-a link whose
// target carries the syntax color.
func posOf(g *kbgen.Generated, word semnet.NodeID) string {
	for _, l := range g.KB.Links(word) {
		if l.Rel != g.Rel.IsA {
			continue
		}
		target, err := g.KB.Node(l.To)
		if err != nil {
			continue
		}
		if target.Color == g.Col.Syntax {
			return rootCat(g, l.To)
		}
	}
	return ""
}

// rootCat walks filler syntax categories up to the core category they
// specialize.
func rootCat(g *kbgen.Generated, cat semnet.NodeID) string {
	for hops := 0; hops < 8; hops++ {
		name := g.KB.Name(cat)
		if !strings.HasPrefix(name, "syn-") {
			return name
		}
		advanced := false
		for _, l := range g.KB.Links(cat) {
			if l.Rel == g.Rel.IsA {
				cat = l.To
				advanced = true
				break
			}
		}
		if !advanced {
			return name
		}
	}
	return g.KB.Name(cat)
}

// ContentWords flattens the phrases' content words in sentence order.
func ContentWords(phrases []Phrase) []semnet.NodeID {
	var out []semnet.NodeID
	for _, p := range phrases {
		out = append(out, p.Content...)
	}
	return out
}
