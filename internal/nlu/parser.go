package nlu

import (
	"fmt"
	"math"

	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
	"snap1/internal/trace"
)

// MaxContentWords bounds the per-sentence marker allocation: each content
// word needs three complex markers (activation, semantic spread, syntactic
// spread) out of the 64 available.
const MaxContentWords = 12

// Marker allocation for the memory-based parser.
const (
	mWordBase = semnet.MarkerID(0)  // cW_i: word i activation
	mSemBase  = semnet.MarkerID(12) // cSem_i: semantic spread of word i
	mSynBase  = semnet.MarkerID(24) // cSyn_i: syntactic spread of word i

	mElem   = semnet.MarkerID(40) // merged semantic element activation
	mSat    = semnet.MarkerID(41) // sem-activated elements with scores
	mRoot   = semnet.MarkerID(42) // candidate root scores (max over elems)
	mFinal  = semnet.MarkerID(43) // complete candidates with scores
	mResult = semnet.MarkerID(44) // resolution survivors with scores
)

func bElemK(k int) semnet.MarkerID { return semnet.Binary(k) } // 0..3

var (
	bAllElem   = semnet.Binary(4)
	bSlotTmp   = semnet.Binary(5)
	bSatElems  = semnet.Binary(6)
	bNotAct    = semnet.Binary(7)
	bCand      = semnet.Binary(20)
	bCandElems = semnet.Binary(21)
	bUnsat     = semnet.Binary(22)
	bCancel    = semnet.Binary(23)
	bOK        = semnet.Binary(24)
	bWin1      = semnet.Binary(25)
	bNotBest   = semnet.Binary(26)
	bLoserRaw  = semnet.Binary(27)
	bAuxRoot   = semnet.Binary(28)
	bNotAux    = semnet.Binary(29)
	bLoser     = semnet.Binary(30)
	bCancel2   = semnet.Binary(31)
	bNotLoser  = semnet.Binary(32)
	bWin       = semnet.Binary(33)
)

func bSat(i int) semnet.MarkerID { return semnet.Binary(40 + i) } // per-word strict satisfaction

// Verification-stage markers: verPairs rotating complex-marker pairs so
// the PU overlaps the per-candidate structure walks.
const verPairs = 8

func bVerA(j int) semnet.MarkerID { return semnet.MarkerID(45 + j%verPairs) }
func bVerB(j int) semnet.MarkerID { return semnet.MarkerID(53 + j%verPairs) }

var (
	bVerTmp = semnet.Binary(62)
	bVerBad = semnet.Binary(63)
	// bCancel3 reuses the stage-1 cancel slot, which is dead by the time
	// verification runs (bWin1 already folded it in).
	bCancel3 = bCancel
)

// MaxVerify caps the number of candidate hypotheses individually verified
// per sentence; the paper notes the resulting propagation count "is not
// expected to exceed much more than 5000" because irrelevant candidates
// saturate.
const MaxVerify = 128

// Parser is the memory-based parser bound to a machine with a loaded
// linguistic knowledge base.
type Parser struct {
	m *machine.Machine
	g *kbgen.Generated

	utterance int // cycles through the utterance anchor nodes

	// State of the most recent Parse, for role extraction: the content
	// words whose markers are still planted in the array, and the
	// winning root.
	lastContent []semnet.NodeID
	lastWinner  semnet.NodeID
	lastValid   bool

	// The three stages' programs, refilled for every sentence so that
	// their instruction slices grow once, not once per parse. A run
	// keeps no program, so reuse is safe once Run returns.
	match, verify, resolve *isa.Program
}

// NewParser returns a parser over m, which must already hold g.KB.
func NewParser(m *machine.Machine, g *kbgen.Generated) *Parser {
	return &Parser{m: m, g: g}
}

// ParseResult is one sentence's outcome with the Table IV time split.
type ParseResult struct {
	Phrases    []Phrase
	Winner     string        // winning basic concept sequence ("" if none parsed)
	WinnerNode semnet.NodeID // its node (InvalidNode if none)
	Score      float32       // winner's specificity score (lower = better)
	Cases      []string      // completed auxiliary case sequences

	PPTime       timing.Time // phrasal parser (serial, controller)
	MBTime       timing.Time // memory-based parser (array)
	Instructions int
	Profile      *trace.Profile
}

// Total reports the end-to-end parse time.
func (r *ParseResult) Total() timing.Time { return r.PPTime + r.MBTime }

// Parse runs the full two-stage pipeline on a sentence.
func (p *Parser) Parse(s kbgen.Sentence) (*ParseResult, error) {
	phrases, ppTime, err := Chunk(p.g, s.Words)
	if err != nil {
		return nil, err
	}
	content := ContentWords(phrases)
	if len(content) > MaxContentWords {
		content = content[:MaxContentWords]
	}
	if len(content) == 0 {
		return nil, fmt.Errorf("nlu: sentence %q has no content words", s.ID)
	}
	res := &ParseResult{Phrases: phrases, PPTime: ppTime, Profile: &trace.Profile{}, WinnerNode: semnet.InvalidNode}
	p.lastValid = false

	// Stage 1: activate, spread, match, and collect candidates.
	p1 := p.matchProgram(content)
	r1, err := p.m.Run(p1)
	if err != nil {
		return nil, err
	}
	res.MBTime += r1.Time
	res.Instructions += p1.Len()
	res.Profile.Merge(r1.Profile)

	if _, any := p.bestScore(r1.Collected(1)); !any {
		// No complete basic candidate: the sentence does not parse.
		return res, nil
	}

	// Stage 1.5: multiple-hypothesis verification. Every activated
	// candidate's sequence structure is walked (root → elements → next
	// chain) and candidates with unsatisfied elements are cancelled.
	// The number of these propagations grows with knowledge-base size
	// as larger networks activate more irrelevant candidates (Fig. 20).
	candidates := p.candidateRoots(r1.Collected(0))
	pv := p.verifyProgram(candidates)
	rv, err := p.m.Run(pv)
	if err != nil {
		return nil, err
	}
	res.MBTime += rv.Time
	res.Instructions += pv.Len()
	res.Profile.Merge(rv.Profile)

	theta, ok := p.bestScore(rv.Collected(0))
	if !ok {
		return res, nil
	}

	// Stage 2 (program control processor role): resolve the multiple
	// hypotheses against the threshold, cancel the losers, bind the
	// winners to an utterance anchor, and retrieve them.
	anchor := p.g.Utterances[p.utterance%len(p.g.Utterances)]
	p.utterance++
	p2 := p.resolveProgram(theta, anchor)
	r2, err := p.m.Run(p2)
	if err != nil {
		return nil, err
	}
	res.MBTime += r2.Time
	res.Instructions += p2.Len()
	res.Profile.Merge(r2.Profile)

	p.extractWinners(r2.Collected(0), res)
	if res.Winner != "" {
		p.lastContent = append(p.lastContent[:0], content...)
		p.lastWinner = res.WinnerNode
		p.lastValid = true
	}
	return res, nil
}

// refill empties *pr for the next sentence, keeping its instruction
// capacity and giving it a fresh rule table, or makes it on first use.
func refill(pr **isa.Program) *isa.Program {
	if *pr == nil {
		*pr = isa.NewProgram()
	} else {
		(*pr).Instrs, (*pr).Rules = (*pr).Instrs[:0], rules.NewTable()
	}
	return *pr
}

// matchProgram builds stage 1: lexical activation, constraint spread,
// per-slot order-checked satisfaction, candidate scoring, incompleteness
// cancellation, and candidate collection.
func (p *Parser) matchProgram(content []semnet.NodeID) *isa.Program {
	g := p.g
	pr := refill(&p.match)
	L := len(content)

	// Configuration phase: clear every working marker.
	for i := 0; i < L; i++ {
		pr.ClearM(mWordBase + semnet.MarkerID(i))
		pr.ClearM(mSemBase + semnet.MarkerID(i))
		pr.ClearM(mSynBase + semnet.MarkerID(i))
		pr.ClearM(bSat(i))
	}
	for _, m := range []semnet.MarkerID{
		mElem, mSat, mRoot, mFinal, mResult,
		bElemK(0), bElemK(1), bElemK(2), bElemK(3),
		bAllElem, bSlotTmp, bSatElems, bNotAct,
		bCand, bCandElems, bUnsat, bCancel, bOK, bWin1,
		bNotBest, bLoserRaw, bAuxRoot, bNotAux, bLoser,
		bCancel2, bNotLoser, bWin,
	} {
		pr.ClearM(m)
	}

	// Lexical activation.
	for i, w := range content {
		pr.SearchNode(w, mWordBase+semnet.MarkerID(i), 0)
	}

	// Constraint spread: semantic (is-a chains switching onto sem-of
	// reverse-constraint links) and syntactic (is-a onto syn-of), one
	// independent PROPAGATE pair per word — the program's α- and
	// β-parallelism source.
	semRule := rules.Spread(g.Rel.IsA, g.Rel.SemOf)
	synRule := rules.Spread(g.Rel.IsA, g.Rel.SynOf)
	for i := range content {
		mi := semnet.MarkerID(i)
		pr.Propagate(mWordBase+mi, mSemBase+mi, semRule, semnet.FuncAdd)
		pr.Propagate(mWordBase+mi, mSynBase+mi, synRule, semnet.FuncAdd)
	}

	// Element masks by slot color.
	for k := 0; k < kbgen.MaxSeqElements; k++ {
		pr.SearchColor(g.Col.Element[k], bElemK(k), 0)
	}
	pr.Or(bElemK(0), bElemK(1), bAllElem, semnet.FuncNop)
	pr.Or(bAllElem, bElemK(2), bAllElem, semnet.FuncNop)
	pr.Or(bAllElem, bElemK(3), bAllElem, semnet.FuncNop)

	// Strict per-word satisfaction: the same word must meet both the
	// semantic and the syntactic constraint of an element.
	for i := range content {
		mi := semnet.MarkerID(i)
		pr.And(mSemBase+mi, mSynBase+mi, bSat(i), semnet.FuncNop)
	}

	// Slot-order check: slot k may only be satisfied by word index >= k
	// (agent before act before target).
	for k := 0; k < kbgen.MaxSeqElements && k < L; k++ {
		for i := k; i < L; i++ {
			pr.And(bSat(i), bElemK(k), bSlotTmp, semnet.FuncNop)
			pr.Or(bSatElems, bSlotTmp, bSatElems, semnet.FuncNop)
		}
	}

	// Merged semantic scores (specificity distances) over all words.
	// The first OR copies with max (Apply(v,v)=v); the rest accumulate.
	pr.Or(mSemBase, mSemBase, mElem, semnet.FuncMax)
	for i := 1; i < L; i++ {
		pr.Or(mElem, mSemBase+semnet.MarkerID(i), mElem, semnet.FuncAdd)
	}
	pr.And(mElem, bAllElem, mSat, semnet.FuncAdd)

	// Candidate activation: every sequence root with at least one
	// sem-activated element becomes a hypothesis, scored by the worst
	// (largest) element distance.
	pr.Propagate(mSat, mRoot, rules.Path(g.Rel.ElemOf), semnet.FuncMax)
	pr.And(mRoot, mRoot, bCand, semnet.FuncNop)

	// Incompleteness cancellation: spread down to the candidates'
	// elements, find the unsatisfied ones, and cancel their roots — the
	// propagation traffic that grows with knowledge-base size (Fig. 20).
	pr.Propagate(bCand, bCandElems, rules.Path(g.Rel.Elem), semnet.FuncNop)
	pr.Not(bSatElems, bNotAct, 0, isa.CondNone)
	pr.And(bCandElems, bNotAct, bUnsat, semnet.FuncNop)
	pr.Propagate(bUnsat, bCancel, rules.Path(g.Rel.ElemOf), semnet.FuncNop)
	pr.Not(bCancel, bOK, 0, isa.CondNone)
	pr.And(bCand, bOK, bWin1, semnet.FuncNop)

	// Accumulation phase: every activated candidate (for the controller's
	// verification list), then the complete ones with scores.
	pr.CollectNode(mRoot)
	pr.And(mRoot, bWin1, mFinal, semnet.FuncMax)
	pr.CollectNode(mFinal)
	return pr
}

// candidateRoots extracts the candidate node list from the stage-1
// collection, capped at MaxVerify (basic sequences first).
func (p *Parser) candidateRoots(items []machine.Item) []semnet.NodeID {
	var basic, aux []semnet.NodeID
	for _, it := range items {
		switch it.Color {
		case p.g.Col.Root:
			basic = append(basic, it.Node)
		case p.g.Col.Aux:
			aux = append(aux, it.Node)
		}
	}
	out := append(basic, aux...)
	if len(out) > MaxVerify {
		out = out[:MaxVerify]
	}
	return out
}

// verifyProgram builds stage 1.5: per-candidate sequence-structure walks.
// Each candidate root is activated and its element slots are touched in
// one propagation step; elements the match stage left unsatisfied
// accumulate into a cancel source that is propagated back up to the
// offending roots.
func (p *Parser) verifyProgram(candidates []semnet.NodeID) *isa.Program {
	g := p.g
	pr := refill(&p.verify)
	chain := rules.Step(g.Rel.Elem)
	pr.ClearM(bVerTmp)
	pr.ClearM(bVerBad)
	pr.ClearM(bCancel3)
	// Candidates verify in batches of verPairs: all the batch's walks are
	// issued back-to-back so the PU overlaps them (β-parallelism), then
	// the unsatisfied-element checks drain the window.
	for base := 0; base < len(candidates); base += verPairs {
		batch := candidates[base:]
		if len(batch) > verPairs {
			batch = batch[:verPairs]
		}
		for j := range batch {
			pr.ClearM(bVerA(j))
			pr.ClearM(bVerB(j))
		}
		for j, r := range batch {
			pr.SearchNode(r, bVerA(j), 0)
		}
		for j := range batch {
			pr.Propagate(bVerA(j), bVerB(j), chain, semnet.FuncNop)
		}
		for j := range batch {
			pr.And(bVerB(j), bNotAct, bVerTmp, semnet.FuncNop)
			pr.Or(bVerBad, bVerTmp, bVerBad, semnet.FuncNop)
		}
	}
	pr.Propagate(bVerBad, bCancel3, rules.Path(g.Rel.ElemOf), semnet.FuncNop)
	pr.Not(bCancel3, bOK, 0, isa.CondNone)
	pr.And(bWin1, bOK, bWin1, semnet.FuncNop)
	pr.And(mRoot, bWin1, mFinal, semnet.FuncMax)
	pr.CollectNode(mFinal)
	return pr
}

// resolveProgram builds stage 2: threshold resolution, loser cancellation,
// utterance binding, and final retrieval.
func (p *Parser) resolveProgram(theta float32, anchor semnet.NodeID) *isa.Program {
	g := p.g
	pr := refill(&p.resolve)

	pr.Not(mFinal, bNotBest, theta, isa.CondLE)
	pr.And(bWin1, bNotBest, bLoserRaw, semnet.FuncNop)
	pr.SearchColor(g.Col.Aux, bAuxRoot, 0)
	pr.Not(bAuxRoot, bNotAux, 0, isa.CondNone)
	pr.And(bLoserRaw, bNotAux, bLoser, semnet.FuncNop)
	pr.Propagate(bLoser, bCancel2, rules.Path(g.Rel.Elem), semnet.FuncNop)
	pr.Not(bLoser, bNotLoser, 0, isa.CondNone)
	pr.And(bWin1, bNotLoser, bWin, semnet.FuncNop)
	pr.MarkerCreate(bWin, g.Rel.Instance, anchor, 0, false)
	pr.And(mFinal, bWin, mResult, semnet.FuncMax)
	pr.CollectNode(mResult)
	pr.MarkerDelete(bWin, g.Rel.Instance, anchor, 0, false)
	return pr
}

// bestScore finds the winning threshold: the minimum score over complete
// basic (non-auxiliary) candidates.
func (p *Parser) bestScore(items []machine.Item) (float32, bool) {
	best := float32(math.Inf(1))
	found := false
	for _, it := range items {
		if it.Color != p.g.Col.Root {
			continue
		}
		if it.Value < best {
			best = it.Value
			found = true
		}
	}
	return best, found
}

// extractWinners splits the surviving candidates into the winning basic
// sequence and completed auxiliary cases.
func (p *Parser) extractWinners(items []machine.Item, res *ParseResult) {
	best := float32(math.Inf(1))
	var bestNode semnet.NodeID
	haveBest := false
	for _, it := range items {
		switch it.Color {
		case p.g.Col.Root:
			if !haveBest || it.Value < best ||
				(it.Value == best && it.Node < bestNode) {
				best, bestNode, haveBest = it.Value, it.Node, true
			}
		case p.g.Col.Aux:
			res.Cases = append(res.Cases, p.g.KB.Name(p.g.KB.Canonical(it.Node)))
		}
	}
	if haveBest {
		res.Winner = p.g.KB.Name(p.g.KB.Canonical(bestNode))
		res.WinnerNode = p.g.KB.Canonical(bestNode)
		res.Score = best
	}
}
