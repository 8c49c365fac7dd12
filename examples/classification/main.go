// classification runs concept classification by constraint intersection:
// each query property spreads down the concept hierarchy under its own
// marker (β-overlapped by the PU), and a global AND retrieves the
// concepts subsumed by all of them — one of the paper's basic inferencing
// operations.
//
// Usage:
//
//	classification [-nodes 4000]
package main

import (
	"flag"
	"fmt"
	"log"

	"snap1/internal/inherit"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

func main() {
	nodes := flag.Int("nodes", 4000, "knowledge-base size in nodes")
	flag.Parse()

	g, err := kbgen.Generate(kbgen.Params{Nodes: *nodes, Seed: 42, WithDomain: true})
	if err != nil {
		log.Fatal(err)
	}
	g.KB.Preprocess()
	m, err := machine.NewFromOptions(machine.PaperConfig(),
		machine.WithCapacityFor(g.KB.NumNodes()))
	if err != nil {
		log.Fatal(err)
	}
	if err := m.LoadKB(g.KB); err != nil {
		log.Fatal(err)
	}

	// Classify against the hand-built ontology: which concepts are both
	// physical things and animate? Which are animate groups? Which
	// buildings exist?
	queries := [][]string{
		{"physical-thing", "animate"},
		{"animate", "group"},
		{"inanimate", "building"},
		{"abstract", "place"},
	}
	for _, q := range queries {
		props := make([]semnet.NodeID, len(q))
		for i, name := range q {
			id, ok := g.KB.Lookup(name)
			if !ok {
				log.Fatalf("property %q not in knowledge base", name)
			}
			props[i] = id
		}
		res, err := inherit.Classification(m, g, props)
		if err != nil {
			log.Fatal(err)
		}
		var names []string
		for _, it := range res.Collected {
			names = append(names, g.KB.Name(g.KB.Canonical(it.Node)))
		}
		fmt.Printf("concepts under %v (%d found, %v simulated):\n", q, res.Reached, res.Time)
		for i, n := range names {
			if i == 12 {
				fmt.Printf("  … and %d more\n", len(names)-i)
				break
			}
			fmt.Printf("  %s\n", n)
		}
		fmt.Println()
	}
}
