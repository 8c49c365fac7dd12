package kbgen

import (
	"fmt"
	"strconv"

	"snap1/internal/semnet"
)

// Domain is the hand-written newswire micro-domain: a small, exactly
// structured slice of the paper's "terrorism in Latin America" knowledge
// base, with the four evaluation sentences standing in for the Table III
// MUC-4 inputs (which are not redistributable).
type Domain struct {
	Sentences []Sentence

	// Named concept-sequence roots.
	AttackEvent, BombingEvent, MurderEvent, KidnapEvent semnet.NodeID
	LocationCase, TimeCase                              semnet.NodeID
}

// Sentence is one evaluation input with its expected parse.
type Sentence struct {
	ID     string
	Text   string
	Words  []string // lexicon tokens, in order
	Expect string   // the basic concept sequence that must win
	Aux    []string // auxiliary case sequences that must also complete
}

// domainClass describes one hand-built hierarchy node.
type domainClass struct {
	name, parent string
}

// The micro-domain concept hierarchy, topologically ordered. "thing" is
// the generated hierarchy root, so the domain shares the synthetic KB's
// upper structure.
var domainClasses = []domainClass{
	{"physical-thing", "thing"},
	{"animate", "physical-thing"},
	{"person", "animate"},
	{"mayor-class", "person"},
	{"civilian", "person"},
	{"group", "animate"},
	{"terrorist-group", "group"},
	{"police-force", "group"},
	{"army", "group"},
	{"government-org", "group"},
	{"inanimate", "physical-thing"},
	{"building", "inanimate"},
	{"embassy-class", "building"},
	{"home-class", "building"},
	{"office-class", "building"},
	{"vehicle", "inanimate"},
	{"car-class", "vehicle"},
	{"device", "inanimate"},
	{"bomb-class", "device"},
	{"abstract", "thing"},
	{"action", "abstract"},
	{"attack-act", "action"},
	{"bomb-act", "attack-act"},
	{"kill-act", "attack-act"},
	{"kidnap-act", "attack-act"},
	{"time-ref", "abstract"},
	{"yesterday-ref", "time-ref"},
	{"place", "abstract"},
	{"city", "place"},
	{"bogota-city", "city"},
	{"sansalvador-city", "city"},
	{"spatial-relation", "abstract"},
}

// domainWord maps a lexicon token to its semantic class and syntactic
// category.
type domainWord struct {
	word, class, cat string
}

var domainWords = []domainWord{
	{"terrorists", "terrorist-group", "noun"},
	{"guerrillas", "terrorist-group", "noun"},
	{"police", "police-force", "noun"},
	{"soldiers", "army", "noun"},
	{"government", "government-org", "noun"},
	{"mayor", "mayor-class", "noun"},
	{"embassy", "embassy-class", "noun"},
	{"home", "home-class", "noun"},
	{"office", "office-class", "noun"},
	{"car", "car-class", "noun"},
	{"bomb", "bomb-class", "noun"},
	{"attacked", "attack-act", "verb"},
	{"bombed", "bomb-act", "verb"},
	{"exploded", "bomb-act", "verb"},
	{"killed", "kill-act", "verb"},
	{"murdered", "kill-act", "verb"},
	{"kidnapped", "kidnap-act", "verb"},
	{"bogota", "bogota-city", "noun"},
	{"salvador", "sansalvador-city", "noun"},
	{"yesterday", "yesterday-ref", "adv"},
	{"in", "spatial-relation", "prep"},
	{"near", "spatial-relation", "prep"},
	{"the", "", "det"},
	{"a", "", "det"},
	{"was", "", "aux-verb"},
	{"of", "", "prep"},
	// Pronouns: the is-a class is the agreement constraint reference
	// resolution checks antecedents against (DMSNAP-style discourse).
	{"they", "group", "pronoun"}, // plural: animate collectives
	{"it", "inanimate", "pronoun"},
}

// domainSeq describes one hand-built concept sequence: a root and the
// semantic constraint class of each element (all with noun/verb syntax in
// slot order agent-act-target for the basic event sequences).
type domainSeq struct {
	name  string
	aux   bool // auxiliary case sequence: attaches to events, never competes
	elems []struct{ sem, syn string }
}

func seq(name string, elems ...[2]string) domainSeq {
	d := domainSeq{name: name}
	for _, e := range elems {
		d.elems = append(d.elems, struct{ sem, syn string }{e[0], e[1]})
	}
	return d
}

var domainSeqs = []domainSeq{
	seq("attack-event", [2]string{"group", "noun"}, [2]string{"attack-act", "verb"}, [2]string{"physical-thing", "noun"}),
	seq("bombing-event", [2]string{"group", "noun"}, [2]string{"bomb-act", "verb"}, [2]string{"building", "noun"}),
	seq("murder-event", [2]string{"group", "noun"}, [2]string{"kill-act", "verb"}, [2]string{"animate", "noun"}),
	seq("kidnap-event", [2]string{"group", "noun"}, [2]string{"kidnap-act", "verb"}, [2]string{"person", "noun"}),
	auxSeq("location-case", [2]string{"spatial-relation", "prep"}, [2]string{"place", "noun"}),
	auxSeq("time-case", [2]string{"time-ref", "adv"}),
}

func auxSeq(name string, elems ...[2]string) domainSeq {
	d := seq(name, elems...)
	d.aux = true
	return d
}

// EvaluationSentences returns the four inputs standing in for Table III's
// MUC-4 newswire sentences.
func EvaluationSentences() []Sentence {
	out := make([]Sentence, len(evaluationSentences))
	copy(out, evaluationSentences)
	return out
}

// evaluationSentences stand in for Table III's MUC-4 newswire inputs.
var evaluationSentences = []Sentence{
	{
		ID:     "S1",
		Text:   "Terrorists attacked the mayor's home in Bogota yesterday.",
		Words:  []string{"terrorists", "attacked", "the", "mayor", "home", "in", "bogota", "yesterday"},
		Expect: "attack-event",
		Aux:    []string{"location-case", "time-case"},
	},
	{
		ID:     "S2",
		Text:   "Guerrillas bombed the embassy.",
		Words:  []string{"guerrillas", "bombed", "the", "embassy"},
		Expect: "bombing-event",
	},
	{
		ID:     "S3",
		Text:   "The police killed the terrorists.",
		Words:  []string{"the", "police", "killed", "the", "terrorists"},
		Expect: "murder-event",
	},
	{
		ID:     "S4",
		Text:   "A car bomb exploded near the government office yesterday.",
		Words:  []string{"a", "car", "bomb", "exploded", "near", "the", "government", "office", "yesterday"},
		Expect: "bombing-event",
		Aux:    []string{"time-case"},
	},
}

// domainNodes is the number of nodes buildDomain adds.
func domainNodes() int {
	n := len(domainClasses) + len(domainWords)
	for _, ds := range domainSeqs {
		n += 1 + len(ds.elems)
	}
	return n
}

// domainLinks is the number of links buildDomain adds: an is-a and a
// subsumes link per class, a word's is-a links to its class and its
// category, six constraint links per sequence element and a next link
// from each but the first, and the auxiliary cases' links to the four
// event sequences.
func domainLinks() int {
	n := 2*len(domainClasses) + 2*4
	for _, dw := range domainWords {
		n++
		if dw.class != "" {
			n++
		}
	}
	for _, ds := range domainSeqs {
		n += 7*len(ds.elems) - 1
	}
	return n
}

// buildDomain adds the micro-domain to a knowledge base under generation
// whose syntax and hierarchy roots already exist. Domain link weights are 1 on
// is-a links and 0 on constraint reverse links, so a complex marker
// propagated with FuncAdd measures exactly the is-a distance from word to
// constraint — the specificity score hypothesis resolution minimizes.
func buildDomain(g *Generated, kb network) (*Domain, error) {
	for _, dc := range domainClasses {
		parent, ok := kb.Lookup(dc.parent)
		if !ok {
			return nil, fmt.Errorf("kbgen: domain parent %q missing", dc.parent)
		}
		id, err := kb.AddNode(dc.name, g.Col.Class)
		if err != nil {
			return nil, err
		}
		kb.MustAddLink(id, g.Rel.IsA, 1, parent)
		kb.MustAddLink(parent, g.Rel.Subsumes, 1, id)
		g.Classes = append(g.Classes, id)
		g.domainClasses = append(g.domainClasses, id)
	}
	for _, dw := range domainWords {
		id, err := kb.AddNode(dw.word, g.Col.Word)
		if err != nil {
			return nil, err
		}
		if dw.class != "" {
			class, ok := kb.Lookup(dw.class)
			if !ok {
				return nil, fmt.Errorf("kbgen: domain class %q missing", dw.class)
			}
			kb.MustAddLink(id, g.Rel.IsA, 1, class)
		}
		cat, ok := kb.Lookup(dw.cat)
		if !ok {
			return nil, fmt.Errorf("kbgen: syntax category %q missing", dw.cat)
		}
		kb.MustAddLink(id, g.Rel.IsA, 1, cat)
		g.Words = append(g.Words, id)
	}

	d := &Domain{Sentences: evaluationSentences}
	for _, ds := range domainSeqs {
		rootColor := g.Col.Root
		if ds.aux {
			rootColor = g.Col.Aux
		}
		root, err := kb.AddNode(ds.name, rootColor)
		if err != nil {
			return nil, err
		}
		g.Roots = append(g.Roots, root)
		var prev semnet.NodeID
		for e, el := range ds.elems {
			eid := kb.MustAddNode(ds.name+".e"+strconv.Itoa(e), g.Col.Element[e%MaxSeqElements])
			kb.MustAddLink(root, g.Rel.Elem, 0, eid)
			kb.MustAddLink(eid, g.Rel.ElemOf, 0, root)
			sem, ok := kb.Lookup(el.sem)
			if !ok {
				return nil, fmt.Errorf("kbgen: constraint class %q missing", el.sem)
			}
			kb.MustAddLink(eid, g.Rel.Sem, 0, sem)
			kb.MustAddLink(sem, g.Rel.SemOf, 0, eid)
			syn, ok := kb.Lookup(el.syn)
			if !ok {
				return nil, fmt.Errorf("kbgen: syntax category %q missing", el.syn)
			}
			kb.MustAddLink(eid, g.Rel.Syn, 0, syn)
			kb.MustAddLink(syn, g.Rel.SynOf, 0, eid)
			if e > 0 {
				kb.MustAddLink(prev, g.Rel.Next, 1, eid)
			}
			prev = eid
		}
		switch ds.name {
		case "attack-event":
			d.AttackEvent = root
		case "bombing-event":
			d.BombingEvent = root
		case "murder-event":
			d.MurderEvent = root
		case "kidnap-event":
			d.KidnapEvent = root
		case "location-case":
			d.LocationCase = root
		case "time-case":
			d.TimeCase = root
		}
	}
	// The auxiliary case sequences attach to every basic event sequence.
	for _, aux := range []semnet.NodeID{d.LocationCase, d.TimeCase} {
		for _, base := range []semnet.NodeID{d.AttackEvent, d.BombingEvent, d.MurderEvent, d.KidnapEvent} {
			kb.MustAddLink(aux, g.Rel.AuxOf, 0, base)
		}
	}
	return d, nil
}
