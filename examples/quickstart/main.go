// Quickstart: build a six-concept semantic network, run one
// marker-propagation program on a simulated SNAP-1 array, and read the
// result back — the complete API surface in ~60 lines.
package main

import (
	"fmt"
	"log"

	snap1 "snap1"
)

func main() {
	// 1. Build the knowledge base on the host.
	kb := snap1.NewKB()
	class := kb.ColorFor("class")
	isa := kb.Relation("is-a")

	thing := kb.MustAddNode("thing", class)
	animal := kb.MustAddNode("animal", class)
	mammal := kb.MustAddNode("mammal", class)
	dog := kb.MustAddNode("dog", class)
	cat := kb.MustAddNode("cat", class)
	rock := kb.MustAddNode("rock", class)

	kb.MustAddLink(animal, isa, 1, thing)
	kb.MustAddLink(mammal, isa, 1, animal)
	kb.MustAddLink(dog, isa, 1, mammal)
	kb.MustAddLink(cat, isa, 1, mammal)
	kb.MustAddLink(rock, isa, 1, thing)

	// 2. Construct the machine (the paper's 16-cluster, 72-PE
	// evaluation configuration) and download the network into the array.
	// The default lockstep engine gives exactly reproducible virtual times.
	m, err := snap1.New(snap1.PaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		log.Fatal(err)
	}

	// 3. Write a SNAP program: activate "dog", spread a marker up the
	// is-a chain accumulating link weights, and collect the result.
	const mSrc, mUp = snap1.MarkerID(1), snap1.MarkerID(2)
	p := snap1.NewProgram()
	p.SearchNode(dog, mSrc, 0)
	p.Propagate(mSrc, mUp, snap1.PathRule(isa), snap1.FuncAdd)
	p.CollectNode(mUp)

	// 4. Run it and inspect the collection.
	res, err := m.Run(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dog is-a: %v\n", res.Names(0))
	for _, item := range res.Collected(0) {
		fmt.Printf("  %-8s distance %.0f (origin %s)\n",
			kb.Name(item.Node), item.Value, kb.Name(item.Origin))
	}
	fmt.Printf("simulated execution time: %v on %d PEs\n", res.Time, m.Config().PEs())
	fmt.Printf("instruction profile:\n%v", res.Profile)
}
