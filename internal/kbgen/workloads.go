package kbgen

import (
	"fmt"
	"math/rand"
	"strconv"

	"snap1/internal/semnet"
)

// Workload is a synthetic propagation benchmark network used for the
// α- and β-parallelism speedup experiments (Figs. 16 and 17): groups of
// independent propagation chains whose sources are found by color search.
type Workload struct {
	KB    *semnet.KB
	Rel   semnet.RelType // the chain relation
	Seeds []semnet.Color // one source color per overlappable group
	Alpha int            // sources per group
	Depth int            // chain length from each source
}

// Chains builds groups × alpha independent chains of the given depth.
// Group g's source nodes all carry color Seeds[g], so a single
// SEARCH-COLOR activates exactly α sources, and the groups use disjoint
// node sets so their PROPAGATEs are fully independent (β-overlappable).
//
// Chain nodes are emitted in an interleaved order so that block
// (sequential) partitioning still spreads every group across clusters.
func Chains(groups, alpha, depth int, seed int64) *Workload {
	if groups < 1 {
		groups = 1
	}
	if alpha < 1 {
		alpha = 1
	}
	if depth < 1 {
		depth = 1
	}
	rng := rand.New(rand.NewSource(seed))
	kb := semnet.NewBuilder((depth+1)*groups*alpha, depth*groups*alpha)
	w := &Workload{
		Rel:   kb.Relation("link"),
		Alpha: alpha,
		Depth: depth,
	}
	for g := 0; g < groups; g++ {
		w.Seeds = append(w.Seeds, kb.ColorFor("seed-"+strconv.Itoa(g)))
	}
	body := kb.ColorFor("chain")

	// Node d of chain a in group g is "c<g>.<a>.<d>", created in
	// depth-major order, so its ID is at(g, a, d).
	for d := 0; d <= depth; d++ {
		for g := 0; g < groups; g++ {
			for a := 0; a < alpha; a++ {
				color := body
				if d == 0 {
					color = w.Seeds[g]
				}
				kb.MustAddNode("c"+strconv.Itoa(g)+"."+strconv.Itoa(a)+"."+strconv.Itoa(d), color)
			}
		}
	}
	at := func(g, a, d int) semnet.NodeID { return semnet.NodeID((d*groups+g)*alpha + a) }
	for g := 0; g < groups; g++ {
		for a := 0; a < alpha; a++ {
			for d := 0; d < depth; d++ {
				kb.MustAddLink(at(g, a, d), w.Rel, 0.1+float32(rng.Float32()*0.9), at(g, a, d+1)) // rounds the product: no FMA on any GOARCH
			}
		}
	}
	w.KB = kb.KB()
	return w
}

// Nodes reports the workload's total node count.
func (w *Workload) Nodes() int { return w.KB.NumNodes() }

// NestedChains builds a fixed-size network of levels[len-1] chains where
// activating seed colors 0..j lights up exactly levels[j] sources. This
// keeps the knowledge base (and so the partition granularity) constant
// while α varies, as in the paper's Fig. 16 sweep. Levels must be
// ascending and divide evenly into the total. The level-j chains are
// strided across the chain index space so that connectivity-based
// partitioning spreads even the smallest activation set over many
// clusters.
func NestedChains(levels []int, depth int, seed int64) (*Workload, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("kbgen: NestedChains needs at least one level")
	}
	total := levels[len(levels)-1]
	for j, l := range levels {
		if l <= 0 || total%l != 0 {
			return nil, fmt.Errorf("kbgen: level %d (%d) must divide total %d", j, l, total)
		}
		if j > 0 && l <= levels[j-1] {
			return nil, fmt.Errorf("kbgen: levels must be strictly ascending")
		}
	}
	rng := rand.New(rand.NewSource(seed))
	kb := semnet.NewBuilder((depth+1)*total, depth*total)
	w := &Workload{
		Rel:   kb.Relation("link"),
		Alpha: total,
		Depth: depth,
	}
	for j := range levels {
		w.Seeds = append(w.Seeds, kb.ColorFor("seed-"+strconv.Itoa(j)))
	}
	body := kb.ColorFor("chain")

	levelOf := func(chain int) int {
		for j, l := range levels {
			if chain%(total/l) == 0 {
				return j
			}
		}
		return len(levels) - 1
	}
	for d := 0; d <= depth; d++ {
		for a := 0; a < total; a++ {
			color := body
			if d == 0 {
				color = w.Seeds[levelOf(a)]
			}
			kb.MustAddNode("n"+strconv.Itoa(a)+"."+strconv.Itoa(d), color)
		}
	}
	// Node d of chain a is "n<a>.<d>", created in depth-major order.
	at := func(a, d int) semnet.NodeID { return semnet.NodeID(d*total + a) }
	for a := 0; a < total; a++ {
		for d := 0; d < depth; d++ {
			kb.MustAddLink(at(a, d), w.Rel, 0.1+float32(rng.Float32()*0.9), at(a, d+1)) // rounds the product: no FMA on any GOARCH
		}
	}
	w.KB = kb.KB()
	return w, nil
}
