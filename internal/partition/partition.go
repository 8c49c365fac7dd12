// Package partition implements the knowledge-base partitioning functions
// that divide the semantic network into regions, one region per cluster
// (Section II-A: "The mapping function is variable with up to 1024 nodes
// per cluster using sequential, round-robin, or semantically-based
// allocation"), plus the cut and hop metrics that score them and a
// hop-aware placement stage (place.go) that maps regions onto hypercube
// addresses.
//
// Every strategy is deterministic: the same knowledge base, cluster
// count, and capacity always yield the same assignment. Partitioning is
// a pure performance knob — query results are bit-identical across
// strategies; only virtual-time communication charges differ.
package partition

import (
	"fmt"

	"snap1/internal/icn"
	"snap1/internal/semnet"
)

// Assignment maps each global node index to its cluster.
type Assignment []int

// Func is a partitioning strategy: it assigns every node of kb to one of
// the clusters without exceeding the per-cluster node capacity.
type Func func(kb *semnet.KB, clusters, capacity int) (Assignment, error)

// ErrTooLarge is wrapped when the network does not fit the array. It
// wraps semnet.ErrCapacity so every node-capacity failure — whether
// caught here or at a cluster store — answers to one public sentinel.
var ErrTooLarge = fmt.Errorf("partition: knowledge base exceeds array capacity: %w", semnet.ErrCapacity)

func check(kb *semnet.KB, clusters, capacity int) error {
	if n := kb.NumNodes(); n > clusters*capacity {
		return fmt.Errorf("%w: %d nodes > %d clusters × %d", ErrTooLarge, n, clusters, capacity)
	}
	return nil
}

// linkWeight scores a link for locality decisions. Preprocessor
// continuation links weigh heavier than semantic relations: a subnode
// split from its parent costs a remote expansion on every activation of
// the parent, so co-locating continuation trees matters more than
// co-locating any single semantic neighbor.
func linkWeight(rel semnet.RelType) int64 {
	if rel == semnet.RelCont {
		return 4
	}
	return 1
}

// Sequential assigns consecutive node IDs to the same cluster in blocks,
// balancing block sizes across clusters.
func Sequential(kb *semnet.KB, clusters, capacity int) (Assignment, error) {
	if err := check(kb, clusters, capacity); err != nil {
		return nil, err
	}
	n := kb.NumNodes()
	a := make(Assignment, n)
	block := (n + clusters - 1) / clusters
	if block == 0 {
		block = 1
	}
	for i := 0; i < n; i++ {
		c := i / block
		if c >= clusters {
			c = clusters - 1
		}
		a[i] = c
	}
	return a, nil
}

// RoundRobin deals node IDs across clusters modulo the cluster count,
// spreading every region of the network over the whole array.
func RoundRobin(kb *semnet.KB, clusters, capacity int) (Assignment, error) {
	if err := check(kb, clusters, capacity); err != nil {
		return nil, err
	}
	n := kb.NumNodes()
	a := make(Assignment, n)
	for i := 0; i < n; i++ {
		a[i] = i % clusters
	}
	return a, nil
}

// Semantic allocates connected regions of the network to the same cluster:
// a breadth-first traversal fills each cluster to its balanced share
// before moving on, so propagation chains tend to stay cluster-local.
// The traversal follows links in both directions — a high-fanin hub is
// reached from the nodes that point at it, not only through its own
// out-links — so hubs co-locate with their neighborhoods. Preprocessor
// subnodes always co-locate with the concept they continue (the
// continuation link is an ordinary out-link and is followed like one).
func Semantic(kb *semnet.KB, clusters, capacity int) (Assignment, error) {
	if err := check(kb, clusters, capacity); err != nil {
		return nil, err
	}
	v := kb.CSR()
	n := v.NumNodes()
	a := make(Assignment, n)
	for i := range a {
		a[i] = -1
	}
	share := (n + clusters - 1) / clusters
	if share > capacity {
		share = capacity
	}
	cluster, filled := 0, 0
	place := func(id int) bool {
		if a[id] != -1 {
			return false
		}
		if filled >= share && cluster < clusters-1 {
			cluster++
			filled = 0
		}
		a[id] = cluster
		filled++
		return true
	}

	queue := make([]int, 0, 64)
	for seed := 0; seed < n; seed++ {
		if a[seed] != -1 {
			continue
		}
		queue = append(queue[:0], seed)
		place(seed)
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			for _, l := range v.Out(semnet.NodeID(id)) {
				if place(int(l.To)) {
					queue = append(queue, int(l.To))
				}
			}
			for _, from := range v.InFrom[v.InOff[id]:v.InOff[id+1]] {
				if place(int(from)) {
					queue = append(queue, int(from))
				}
			}
		}
	}
	return a, nil
}

// CutRatio reports the fraction of links whose endpoints land in different
// clusters — the traffic a partition sends through the interconnect. It
// walks the knowledge base's flat CSR adjacency snapshot, so a full sweep
// is a linear scan of one link slab.
func CutRatio(kb *semnet.KB, a Assignment) float64 {
	v := kb.CSR()
	if len(v.Links) == 0 {
		return 0
	}
	cut := 0
	for id, n := 0, v.NumNodes(); id < n; id++ {
		home := a[id]
		for _, l := range v.Links[v.Off[id]:v.Off[id+1]] {
			if a[l.To] != home {
				cut++
			}
		}
	}
	return float64(cut) / float64(len(v.Links))
}

// HopCost reports the mean number of hypercube hops a message sent down
// each link would take under the given assignment — 0 for cluster-local
// links, 1 for links between clusters one digit apart, and so on. Where
// CutRatio only counts whether a link crosses the interconnect, HopCost
// also scores how far it travels, which is what the placement stage
// (Place) minimizes.
func HopCost(kb *semnet.KB, a Assignment, clusters int) float64 {
	v := kb.CSR()
	if len(v.Links) == 0 {
		return 0
	}
	t := icn.NewTopology(clusters)
	var total int64
	for id, n := 0, v.NumNodes(); id < n; id++ {
		home := a[id]
		for _, l := range v.Links[v.Off[id]:v.Off[id+1]] {
			total += int64(t.Hops(home, a[l.To]))
		}
	}
	return float64(total) / float64(len(v.Links))
}

// ByName resolves a strategy name for command-line tools.
func ByName(name string) (Func, error) {
	switch name {
	case "sequential", "seq":
		return Sequential, nil
	case "round-robin", "rr":
		return RoundRobin, nil
	case "semantic", "sem":
		return Semantic, nil
	case "refined", "ref":
		return Refined, nil
	default:
		return nil, fmt.Errorf("partition: unknown strategy %q", name)
	}
}
