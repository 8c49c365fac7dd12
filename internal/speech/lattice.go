package speech

import (
	"fmt"
	"math/rand"

	"snap1/internal/kbgen"
	"snap1/internal/semnet"
)

// Confuse builds a noisy lattice from a true word sequence: each slot
// holds the true word plus up to MaxAlternatives-1 same-category
// confusions drawn from the lexicon, with randomized acoustic costs —
// confusions are frequently acoustically *better* than the truth, so a
// decoder that trusted acoustics alone would transcribe garbage.
func Confuse(g *kbgen.Generated, words []string, seed int64) (Lattice, error) {
	if len(words) > MaxSlots {
		return nil, fmt.Errorf("speech: %d words exceed %d lattice slots", len(words), MaxSlots)
	}
	rng := rand.New(rand.NewSource(seed))
	cats := lexiconByCategory(g)
	var lat Lattice
	for _, w := range words {
		id, ok := g.KB.Lookup(w)
		if !ok {
			return nil, fmt.Errorf("speech: word %q not in lexicon", w)
		}
		slot := Slot{{Word: w, Acoustic: 0.2 + float32(0.3*rng.Float32())}} // rounds the product: no FMA on any GOARCH
		// Confusions prefer hand-domain words (readable, semantically
		// plausible) over synthetic filler vocabulary.
		pool := cats[categoryOf(g, id)]
		var domainPool, fillerPool []string
		for _, cand := range pool {
			if cand == w {
				continue
			}
			if len(cand) > 2 && cand[0] == 'w' && cand[1] == '-' {
				fillerPool = append(fillerPool, cand)
			} else {
				domainPool = append(domainPool, cand)
			}
		}
		for _, cand := range append(shuffled(rng, domainPool), shuffled(rng, fillerPool)...) {
			if len(slot) >= MaxAlternatives {
				break
			}
			slot = append(slot, Alternative{Word: cand, Acoustic: 0.25 + float32(0.5*rng.Float32())}) // rounds the product: no FMA on any GOARCH
		}
		lat = append(lat, slot)
	}
	return lat, nil
}

// categoryOf resolves a lexical node's syntactic category node.
func categoryOf(g *kbgen.Generated, word semnet.NodeID) semnet.NodeID {
	for _, l := range g.KB.Links(word) {
		if l.Rel != g.Rel.IsA {
			continue
		}
		target, err := g.KB.Node(l.To)
		if err != nil {
			continue
		}
		if target.Color == g.Col.Syntax {
			return l.To
		}
	}
	return semnet.InvalidNode
}

// lexiconByCategory groups every lexicon word name by its category node.
func lexiconByCategory(g *kbgen.Generated) map[semnet.NodeID][]string {
	out := make(map[semnet.NodeID][]string)
	for _, w := range g.Words {
		cat := categoryOf(g, w)
		if cat == semnet.InvalidNode {
			continue
		}
		out[cat] = append(out[cat], g.KB.Name(w))
	}
	return out
}

func shuffled(rng *rand.Rand, in []string) []string {
	out := append([]string(nil), in...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
