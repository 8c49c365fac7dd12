// Package kbgen generates linguistic knowledge bases with the structure
// the SNAP project used (Section I-B): a lexical layer at the bottom,
// semantic and syntactic constraints in the middle, and concept sequences
// at the top, mixed in the paper's measured proportions — of the
// non-lexical nodes roughly 75 % basic concept sequences, 15 % the
// concept-type hierarchy, 5 % syntactic patterns, and 5 % auxiliary
// concept storage, under a lexicon of about a third of the network.
//
// The original knowledge base (10K-word lexicon, 20K+ non-lexical
// concepts about "terrorism in Latin America", built by hand for MUC-4
// texts) is not redistributable; the generator reproduces its structural
// statistics deterministically from a seed, and can embed a hand-written
// micro-domain of the same genre so realistic sentences parse.
package kbgen

import (
	"fmt"
	"math/rand"
	"strconv"

	"snap1/internal/semnet"
)

// MaxSeqElements is the largest concept-sequence element count generated.
const MaxSeqElements = 4

// Params controls generation.
type Params struct {
	// Nodes is the total node budget before preprocessor subnode
	// splitting. Minimum 64.
	Nodes int
	// Seed makes generation reproducible.
	Seed int64
	// Branching is the concept hierarchy's fan-out (default 4).
	Branching int
	// WithDomain embeds the newswire micro-domain (buildDomain).
	WithDomain bool
}

// Relations is the interned relation vocabulary every generated KB uses.
type Relations struct {
	IsA      semnet.RelType // specific -> general (upward)
	Subsumes semnet.RelType // general -> specific (downward)
	Sem      semnet.RelType // element -> constraining semantic class
	SemOf    semnet.RelType // class -> constrained element (reverse)
	Syn      semnet.RelType // element -> constraining syntactic category
	SynOf    semnet.RelType // category -> constrained element (reverse)
	Elem     semnet.RelType // sequence root -> element
	ElemOf   semnet.RelType // element -> sequence root (reverse)
	Next     semnet.RelType // element -> following element
	AuxOf    semnet.RelType // auxiliary sequence -> base sequence
	Instance semnet.RelType // parse binding: winner -> utterance
}

// Colors is the interned color vocabulary.
type Colors struct {
	Word      semnet.Color
	Class     semnet.Color // interior concept-hierarchy node
	Leaf      semnet.Color // hierarchy leaf
	Syntax    semnet.Color
	Root      semnet.Color // concept-sequence root
	Aux       semnet.Color
	Utterance semnet.Color
	Element   [MaxSeqElements]semnet.Color // per element-slot index
}

// Generated is a knowledge base plus the handles experiments need.
type Generated struct {
	KB  *semnet.KB
	Rel Relations
	Col Colors

	HierRoot   semnet.NodeID
	SyntaxRoot semnet.NodeID
	Words      []semnet.NodeID
	Classes    []semnet.NodeID // interior hierarchy nodes (incl. root)
	Leaves     []semnet.NodeID
	Roots      []semnet.NodeID // concept-sequence roots
	SynCats    []semnet.NodeID
	Utterances []semnet.NodeID

	Domain *Domain // non-nil when Params.WithDomain

	domainClasses []semnet.NodeID // hand-built ontology classes, if any
}

// network is what generation needs of the knowledge base it grows. Generate
// passes a semnet.Builder; the per-element locked calls of *semnet.KB
// satisfy it too, and must build the same network.
type network interface {
	AddNode(name string, color semnet.Color) (semnet.NodeID, error)
	MustAddNode(name string, color semnet.Color) semnet.NodeID
	MustAddLink(from semnet.NodeID, rel semnet.RelType, weight float32, to semnet.NodeID)
	Lookup(name string) (semnet.NodeID, bool)
	Relation(name string) semnet.RelType
	ColorFor(name string) semnet.Color
}

// numbered returns prefix followed by i in decimal, in one allocation.
func numbered(prefix string, i int) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(i), 10))
}

// internRelations fills the relation vocabulary on kb.
func internRelations(kb network) Relations {
	return Relations{
		IsA:      kb.Relation("is-a"),
		Subsumes: kb.Relation("subsumes"),
		Sem:      kb.Relation("sem"),
		SemOf:    kb.Relation("sem-of"),
		Syn:      kb.Relation("syn"),
		SynOf:    kb.Relation("syn-of"),
		Elem:     kb.Relation("elem"),
		ElemOf:   kb.Relation("elem-of"),
		Next:     kb.Relation("next"),
		AuxOf:    kb.Relation("aux-of"),
		Instance: kb.Relation("instance-of"),
	}
}

func internColors(kb network) Colors {
	c := Colors{
		Word:      kb.ColorFor("word"),
		Class:     kb.ColorFor("class"),
		Leaf:      kb.ColorFor("leaf"),
		Syntax:    kb.ColorFor("syntax"),
		Root:      kb.ColorFor("cs-root"),
		Aux:       kb.ColorFor("aux"),
		Utterance: kb.ColorFor("utterance"),
	}
	for i := range c.Element {
		c.Element[i] = kb.ColorFor("element-" + strconv.Itoa(i))
	}
	return c
}

// coreSyntaxCats are the part-of-speech and phrase categories every
// generated lexicon references.
var coreSyntaxCats = []string{
	"noun", "verb", "adj", "det", "prep", "adv", "aux-verb", "pronoun",
	"np", "vp", "pp", "sentence",
}

// numUtterances is the number of utterance anchors every network has.
const numUtterances = 8

// layers is the node budget of each layer, following the paper's
// proportions: a third lexicon; of the remainder 75 % concept sequences,
// 15 % hierarchy, 5 % syntax, 5 % auxiliary — with a handful of utterance
// anchors.
type layers struct{ lex, cs, hier, syn, aux int }

func budget(nodes int) layers {
	rest := nodes - numUtterances
	var l layers
	l.lex = rest / 3
	rest -= l.lex
	l.cs = rest * 75 / 100
	l.hier = rest * 15 / 100
	l.syn = rest * 5 / 100
	l.aux = rest - l.cs - l.hier - l.syn
	return l
}

// nodeCount is how many nodes Generate(p) creates — or one more, when the
// concept-sequence budget ends on a remainder too small for a sequence:
// each layer's budget, with the syntax layer never below its core
// categories.
func nodeCount(p Params) int {
	l := budget(p.Nodes)
	n := l.lex + l.cs + l.hier + max(l.syn, len(coreSyntaxCats)+1) + l.aux + numUtterances
	if p.WithDomain {
		n += domainNodes()
	}
	return n
}

// Generate builds a knowledge base of about p.Nodes nodes. It is the
// network's only owner until it returns, so it builds through a
// semnet.Builder sized for the whole network.
func Generate(p Params) (*Generated, error) {
	if p.Nodes < 64 {
		return nil, fmt.Errorf("kbgen: need at least 64 nodes, got %d", p.Nodes)
	}
	b := semnet.NewBuilder(nodeCount(p))
	g, err := generate(p, b)
	if err != nil {
		return nil, err
	}
	g.KB = b.KB()
	return g, nil
}

// generate grows the network of p on kb and returns its handles; the
// caller fills in g.KB.
func generate(p Params, kb network) (*Generated, error) {
	if p.Branching <= 1 {
		p.Branching = 4
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := &Generated{
		Rel: internRelations(kb),
		Col: internColors(kb),
	}
	l := budget(p.Nodes)
	g.buildSyntax(kb, rng, l.syn)
	g.buildHierarchy(kb, rng, l.hier, p.Branching)
	if p.WithDomain {
		d, err := buildDomain(g, kb)
		if err != nil {
			return nil, err
		}
		g.Domain = d
	}
	g.buildLexicon(kb, rng, l.lex)
	g.buildSequences(kb, rng, l.cs)
	g.buildAux(kb, rng, l.aux)
	for i := 0; i < numUtterances; i++ {
		g.Utterances = append(g.Utterances, kb.MustAddNode(numbered("utterance-", i), g.Col.Utterance))
	}
	return g, nil
}

// MustGenerate is Generate for construction code where failure is a bug.
func MustGenerate(p Params) *Generated {
	g, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Generated) buildSyntax(kb network, rng *rand.Rand, n int) {
	g.SyntaxRoot = kb.MustAddNode("syntax-root", g.Col.Syntax)
	for _, name := range coreSyntaxCats {
		id := kb.MustAddNode(name, g.Col.Syntax)
		kb.MustAddLink(id, g.Rel.IsA, 1, g.SyntaxRoot)
		g.SynCats = append(g.SynCats, id)
	}
	for i := len(coreSyntaxCats) + 1; i < n; i++ {
		id := kb.MustAddNode(numbered("syn-", i), g.Col.Syntax)
		parent := g.SynCats[rng.Intn(len(g.SynCats))]
		kb.MustAddLink(id, g.Rel.IsA, 1, parent)
		g.SynCats = append(g.SynCats, id)
	}
}

// buildHierarchy grows the concept-type hierarchy breadth-first with the
// configured branching factor; every node gets an upward is-a link and a
// downward subsumes link so both inheritance directions propagate. The
// last level is the leaf level, and its nodes are made with the leaf
// color: a level is the last when it reaches the budget, which its size
// (branching per node above it) decides before it is built.
func (g *Generated) buildHierarchy(kb network, rng *rand.Rand, n, branching int) {
	g.HierRoot = kb.MustAddNode("thing", g.levelColor(n <= 1))
	g.Classes = append(g.Classes, g.HierRoot)
	frontier := []semnet.NodeID{g.HierRoot}
	made := 1
	for made < n {
		color := g.levelColor(made+branching*len(frontier) >= n)
		var next []semnet.NodeID
		for _, parent := range frontier {
			for b := 0; b < branching && made < n; b++ {
				w := 0.2 + float32(rng.Float32()*0.8) // rounds the product: no FMA on any GOARCH
				id := kb.MustAddNode(numbered("class-", made), color)
				kb.MustAddLink(id, g.Rel.IsA, w, parent)
				kb.MustAddLink(parent, g.Rel.Subsumes, w, id)
				next = append(next, id)
				made++
			}
			if made >= n {
				break
			}
		}
		frontier = next
		g.Classes = append(g.Classes, next...)
	}
	g.Leaves = frontier
}

// levelColor is the color of a hierarchy level's nodes: the leaf color
// for the last level, the class color above it.
func (g *Generated) levelColor(last bool) semnet.Color {
	if last {
		return g.Col.Leaf
	}
	return g.Col.Class
}

// pickSyn samples a syntactic category for an element constraint. Most
// constraints land on filler categories so that the fan-in of the core
// part-of-speech categories (and with it the activation burst per word)
// stays bounded as the knowledge base grows.
func (g *Generated) pickSyn(rng *rand.Rand) semnet.NodeID {
	nCore := len(coreSyntaxCats)
	if len(g.SynCats) > nCore && rng.Float64() < 0.7 {
		return g.SynCats[nCore+rng.Intn(len(g.SynCats)-nCore)]
	}
	return g.SynCats[rng.Intn(nCore)]
}

// pickClass samples a hierarchy node, biased toward the leaf level where
// specific concepts live. When a domain is embedded, a fraction of the
// constraints land on its classes: realistic knowledge bases have many
// concept sequences referencing the common ontology (person, place,
// group, …), which is what activates "irrelevant candidates" all over the
// array when a sentence is read.
func (g *Generated) pickClass(rng *rand.Rand) semnet.NodeID {
	if len(g.domainClasses) > 0 && rng.Float64() < 0.12 {
		return g.domainClasses[rng.Intn(len(g.domainClasses))]
	}
	if len(g.Leaves) > 0 && rng.Float64() < 0.6 {
		return g.Leaves[rng.Intn(len(g.Leaves))]
	}
	return g.Classes[rng.Intn(len(g.Classes))]
}

func (g *Generated) buildLexicon(kb network, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		id := kb.MustAddNode(numbered("w-", i), g.Col.Word)
		kb.MustAddLink(id, g.Rel.IsA, 0.3+float32(rng.Float32()*0.7), g.pickClass(rng)) // rounds the product: no FMA on any GOARCH
		cat := g.SynCats[rng.Intn(len(g.SynCats))]
		kb.MustAddLink(id, g.Rel.IsA, 1, cat)
		g.Words = append(g.Words, id)
	}
}

// buildSequences creates concept sequences: a root plus 2..MaxSeqElements
// element nodes, each element carrying one semantic and one syntactic
// constraint with reverse links for downward activation.
func (g *Generated) buildSequences(kb network, rng *rand.Rand, budget int) {
	i := 0
	for budget > 0 {
		k := 2 + rng.Intn(MaxSeqElements-1)
		if k+1 > budget {
			k = budget - 1
			if k < 1 {
				break
			}
		}
		name := numbered("cs-", i)
		root := kb.MustAddNode(name, g.Col.Root)
		g.Roots = append(g.Roots, root)
		var prev semnet.NodeID
		for e := 0; e < k; e++ {
			el := kb.MustAddNode(name+".e"+strconv.Itoa(e), g.Col.Element[e%MaxSeqElements])
			w := 0.2 + float32(rng.Float32()*0.8) // rounds the product: no FMA on any GOARCH
			kb.MustAddLink(root, g.Rel.Elem, w, el)
			kb.MustAddLink(el, g.Rel.ElemOf, w, root)
			sem := g.pickClass(rng)
			kb.MustAddLink(el, g.Rel.Sem, w, sem)
			kb.MustAddLink(sem, g.Rel.SemOf, w, el)
			// A second, broader semantic constraint on half the elements:
			// elements often accept a disjunction of concept classes, and
			// the extra reverse links raise the activation width (α) of
			// the constraint-spread phase toward the paper's 100-1000
			// range.
			sem2 := g.pickClass(rng)
			if sem2 != sem && rng.Float64() < 0.5 {
				kb.MustAddLink(el, g.Rel.Sem, w, sem2)
				kb.MustAddLink(sem2, g.Rel.SemOf, w, el)
			}
			syn := g.pickSyn(rng)
			kb.MustAddLink(el, g.Rel.Syn, 1, syn)
			kb.MustAddLink(syn, g.Rel.SynOf, 1, el)
			if e > 0 {
				kb.MustAddLink(prev, g.Rel.Next, 1, el)
			}
			prev = el
		}
		budget -= k + 1
		i++
	}
}

func (g *Generated) buildAux(kb network, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		id := kb.MustAddNode(numbered("aux-", i), g.Col.Aux)
		if len(g.Roots) > 0 {
			root := g.Roots[rng.Intn(len(g.Roots))]
			kb.MustAddLink(id, g.Rel.AuxOf, 1, root)
		}
	}
}

// Stats summarizes a generated network's layer composition.
type Stats struct {
	Nodes, Links                       int
	Words, Classes, Leaves, Roots, Syn int
	HierarchyDepth                     int
}

// Summarize computes layer statistics for reporting.
func (g *Generated) Summarize() Stats {
	depth := 0
	for n := len(g.Classes) + len(g.Leaves); n > 1; n = (n + 3) / 4 {
		depth++
	}
	return Stats{
		Nodes:          g.KB.NumNodes(),
		Links:          g.KB.NumLinks(),
		Words:          len(g.Words),
		Classes:        len(g.Classes),
		Leaves:         len(g.Leaves),
		Roots:          len(g.Roots),
		Syn:            len(g.SynCats),
		HierarchyDepth: depth,
	}
}
