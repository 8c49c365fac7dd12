// speech runs the PASS-style speech understanding workload: noisy word
// lattices (per time slot, several acoustically scored hypotheses) are
// rescored by marker propagation over the linguistic knowledge base.
// Competing hypotheses spread their constraints under independent markers
// — the β-parallelism the paper measured at 2.8-6 for the PASS program —
// and the best-completing concept sequence picks each slot's word,
// overturning acoustics when semantics demand it.
//
// Usage:
//
//	speech [-nodes 4000] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/speech"
)

func main() {
	nodes := flag.Int("nodes", 4000, "knowledge-base size in nodes")
	seed := flag.Int64("seed", 7, "lattice corruption seed")
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
	dec := speech.NewDecoder(m, g)

	truths := [][]string{
		{"guerrillas", "bombed", "embassy"},
		{"police", "killed", "terrorists"},
		{"terrorists", "attacked", "mayor"},
	}
	for _, truth := range truths {
		lat, err := speech.Confuse(g, truth, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("truth: %s\n", strings.Join(truth, " "))
		for i, slot := range lat {
			fmt.Printf("  slot %d:", i)
			for _, alt := range slot {
				fmt.Printf("  %s(%.2f)", alt.Word, alt.Acoustic)
			}
			fmt.Println()
		}
		res, err := dec.Decode(lat)
		if err != nil {
			log.Fatal(err)
		}
		correct := 0
		for i := range truth {
			if res.Transcript[i] == truth[i] {
				correct++
			}
		}
		fmt.Printf("  decoded: %s  (meaning %s, score %.2f)\n",
			strings.Join(res.Transcript, " "), res.Winner, res.Score)
		fmt.Printf("  %d/%d slots correct, %v simulated, %d instructions, mean β %.1f\n\n",
			correct, len(truth), res.Time, res.Instructions, res.MeanBeta)
	}
}
