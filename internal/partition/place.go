package partition

import (
	"snap1/internal/icn"
	"snap1/internal/semnet"
)

// placeSwapPasses bounds the pairwise-swap improvement loop; placement
// stays O(passes × clusters³) in the worst case.
const placeSwapPasses = 8

// placeMaxClusters gates the O(clusters³) placement search. Arrays past
// this size get the identity placement — the paper's machine tops out at
// 32 clusters, so the gate only guards degenerate configurations.
const placeMaxClusters = 128

// Place maps partition regions onto hypercube cluster addresses so that
// region pairs exchanging the most link weight land few hops apart — the
// quadratic-assignment step between partitioning (which decides the cut)
// and routing (which pays per hop). It measures the weighted inter-region
// traffic of every cut link, seeds a greedy placement (heaviest-traffic
// region first, each following region on the free address closest to the
// regions it talks to), then runs bounded pairwise-swap improvement.
//
// The result is a new assignment with regions relabeled to their
// addresses; region contents are untouched, so cut ratio is invariant
// while hop cost drops. Place is deterministic and a no-op when no link
// crosses regions (or when clusters exceeds the search gate).
func Place(kb *semnet.KB, a Assignment, clusters int) Assignment {
	out := make(Assignment, len(a))
	perm := PlaceOrder(kb, a, clusters)
	for i, c := range a {
		out[i] = perm[c]
	}
	return out
}

// PlaceOrder computes the region→address permutation Place applies:
// perm[region] is the hypercube address the region should occupy. The
// identity permutation means placement found nothing to improve.
func PlaceOrder(kb *semnet.KB, a Assignment, clusters int) []int {
	perm := make([]int, clusters)
	for i := range perm {
		perm[i] = i
	}
	if clusters <= 2 || clusters > placeMaxClusters {
		return perm
	}

	// Weighted inter-region traffic of cut links (symmetric matrix).
	w := make([]int64, clusters*clusters)
	cross := false
	eachLink(kb, func(from int, l semnet.Link) {
		home, dst := a[from], a[l.To]
		if dst != home {
			lw := linkWeight(l.Rel)
			w[home*clusters+dst] += lw
			w[dst*clusters+home] += lw
			cross = true
		}
	})
	if !cross {
		return perm
	}

	t := icn.NewTopology(clusters)
	// h sums both directions once, so pair costs are symmetric even on
	// incomplete arrays whose fallback routes are not.
	h := func(x, y int) int64 {
		return int64(t.Hops(x, y) + t.Hops(y, x))
	}

	// Greedy seeding. attach[r] tracks r's traffic to already-placed
	// regions; the heaviest-total region anchors address 0.
	placed := make([]bool, clusters) // region placed?
	usedAddr := make([]bool, clusters)
	addrOf := make([]int, clusters) // region -> address
	attach := make([]int64, clusters)
	total := make([]int64, clusters)
	for r := 0; r < clusters; r++ {
		for s := 0; s < clusters; s++ {
			total[r] += w[r*clusters+s]
		}
	}
	anchor := 0
	for r := 1; r < clusters; r++ {
		if total[r] > total[anchor] {
			anchor = r
		}
	}
	place := func(r, addr int) {
		placed[r], usedAddr[addr], addrOf[r] = true, true, addr
		for s := 0; s < clusters; s++ {
			if !placed[s] {
				attach[s] += w[r*clusters+s]
			}
		}
	}
	place(anchor, 0)
	for step := 1; step < clusters; step++ {
		next := -1
		for r := 0; r < clusters; r++ {
			if !placed[r] && (next == -1 || attach[r] > attach[next]) {
				next = r
			}
		}
		bestAddr, bestCost := -1, int64(0)
		for addr := 0; addr < clusters; addr++ {
			if usedAddr[addr] {
				continue
			}
			var cost int64
			for s := 0; s < clusters; s++ {
				if placed[s] {
					cost += w[next*clusters+s] * h(addr, addrOf[s])
				}
			}
			if bestAddr == -1 || cost < bestCost {
				bestAddr, bestCost = addr, cost
			}
		}
		place(next, bestAddr)
	}

	// Pairwise-swap improvement: exchange two regions' addresses when it
	// lowers total traffic×hops; first-improvement, fixed scan order.
	contrib := func(r, addr, skip int) int64 {
		var cost int64
		for s := 0; s < clusters; s++ {
			if s != r && s != skip {
				cost += w[r*clusters+s] * h(addr, addrOf[s])
			}
		}
		return cost
	}
	for pass := 0; pass < placeSwapPasses; pass++ {
		improved := false
		for r1 := 0; r1 < clusters; r1++ {
			for r2 := r1 + 1; r2 < clusters; r2++ {
				a1, a2 := addrOf[r1], addrOf[r2]
				old := contrib(r1, a1, r2) + contrib(r2, a2, r1)
				swapped := contrib(r1, a2, r2) + contrib(r2, a1, r1)
				if swapped < old {
					addrOf[r1], addrOf[r2] = a2, a1
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	copy(perm, addrOf)
	return perm
}
