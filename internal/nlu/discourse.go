package nlu

import (
	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// Discourse-level processing in the DMSNAP style (the paper's NLU program
// [8]): role fillers extracted from each parsed event persist as
// discourse entities, and pronouns in later sentences resolve against
// them by marker propagation — the antecedent's is-a chain must reach the
// pronoun's agreement class.

// Role is one filled slot of a parsed event.
type Role struct {
	Slot  int    // element slot index (0 = agent, 1 = act, 2 = target, …)
	Word  string // the filling word
	Node  semnet.NodeID
	Score float32 // how specifically the word satisfied the slot
}

// Markers reserved for role extraction and reference resolution; they
// reuse the verification scratch range, which is dead after a parse.
var (
	mRoleEx  = semnet.MarkerID(45)
	bRoleSel = semnet.Binary(52)
	bRoleEl  = semnet.Binary(53)
	bRoleK   = semnet.Binary(54)
	mRefA    = semnet.MarkerID(46)
	mRefB    = semnet.MarkerID(47)
)

// Discourse parses sentence sequences, resolving pronouns against role
// fillers of earlier events (most recent first).
type Discourse struct {
	p *Parser
	// entities holds antecedent candidate word nodes, most recent first.
	entities []semnet.NodeID
	// ResolveTime accumulates the array time spent on reference checks.
	ResolveTime timing.Time
}

// NewDiscourse starts an empty discourse context over p.
func NewDiscourse(p *Parser) *Discourse { return &Discourse{p: p} }

// Entities returns the current antecedent candidates, most recent first.
func (d *Discourse) Entities() []string {
	out := make([]string, len(d.entities))
	for i, e := range d.entities {
		out[i] = d.p.g.KB.Name(e)
	}
	return out
}

// Parse resolves any pronouns in the sentence against the discourse
// context, parses the resolved sentence, and pushes the new event's role
// fillers into the context.
func (d *Discourse) Parse(s kbgen.Sentence) (*ParseResult, []Role, error) {
	resolved := make([]string, len(s.Words))
	copy(resolved, s.Words)
	for i, w := range s.Words {
		id, ok := d.p.g.KB.Lookup(w)
		if !ok {
			continue
		}
		if !d.isPronoun(id) {
			continue
		}
		ante, err := d.resolve(id)
		if err != nil {
			return nil, nil, err
		}
		if ante != semnet.InvalidNode {
			resolved[i] = d.p.g.KB.Name(ante)
		}
	}
	s.Words = resolved
	res, err := d.p.Parse(s)
	if err != nil {
		return nil, nil, err
	}
	if res.Winner == "" {
		return res, nil, nil
	}
	roles, err := d.p.ExtractRoles()
	if err != nil {
		return nil, nil, err
	}
	// Noun fillers become antecedent candidates, most recent first;
	// verbs and pronouns do not refer, and re-mentions move to the front
	// rather than duplicating.
	for _, r := range roles {
		if d.isPronoun(r.Node) || posOf(d.p.g, r.Node) != "noun" {
			continue
		}
		filtered := d.entities[:0]
		for _, e := range d.entities {
			if e != r.Node {
				filtered = append(filtered, e)
			}
		}
		d.entities = append([]semnet.NodeID{r.Node}, filtered...)
	}
	const maxEntities = 8
	if len(d.entities) > maxEntities {
		d.entities = d.entities[:maxEntities]
	}
	return res, roles, nil
}

// isPronoun reports whether the lexical node's syntactic category is the
// pronoun class.
func (d *Discourse) isPronoun(word semnet.NodeID) bool {
	pronounCat, ok := d.p.g.KB.Lookup("pronoun")
	if !ok {
		return false
	}
	for _, l := range d.p.g.KB.Links(word) {
		if l.Rel == d.p.g.Rel.IsA && l.To == pronounCat {
			return true
		}
	}
	return false
}

// agreementClass returns the pronoun's is-a class constraint (the
// non-syntax is-a target).
func (d *Discourse) agreementClass(word semnet.NodeID) semnet.NodeID {
	for _, l := range d.p.g.KB.Links(word) {
		if l.Rel != d.p.g.Rel.IsA {
			continue
		}
		target, err := d.p.g.KB.Node(l.To)
		if err != nil {
			continue
		}
		if target.Color != d.p.g.Col.Syntax {
			return l.To
		}
	}
	return semnet.InvalidNode
}

// resolve finds the most recent discourse entity whose is-a chain reaches
// the pronoun's agreement class — an upward marker propagation per
// candidate, checked on the array.
func (d *Discourse) resolve(pronoun semnet.NodeID) (semnet.NodeID, error) {
	agree := d.agreementClass(pronoun)
	if agree == semnet.InvalidNode {
		return semnet.InvalidNode, nil
	}
	g := d.p.g
	for _, cand := range d.entities {
		pr := isa.NewProgram()
		pr.ClearM(mRefA)
		pr.ClearM(mRefB)
		pr.SearchNode(cand, mRefA, 0)
		pr.Propagate(mRefA, mRefB, rules.Path(g.Rel.IsA), semnet.FuncNop)
		pr.Barrier()
		res, err := d.p.m.Run(pr)
		if err != nil {
			return semnet.InvalidNode, err
		}
		d.ResolveTime += res.Time
		if d.p.m.TestMarker(agree, mRefB) {
			return cand, nil
		}
	}
	return semnet.InvalidNode, nil
}
