// nlu_parse runs the paper's headline application: two-stage natural
// language understanding of newswire sentences over a synthetic
// "terrorism in Latin America" knowledge base — a serial phrasal parser
// on the controller followed by the marker-propagation memory-based
// parser on the array.
//
// Usage:
//
//	nlu_parse [-nodes 9000] [-clusters 16] [-profile]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/nlu"
)

// indent prefixes every line for nested display.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

func main() {
	nodes := flag.Int("nodes", 9000, "knowledge-base size in nodes")
	clusters := flag.Int("clusters", 16, "array cluster count")
	profile := flag.Bool("profile", false, "print the merged instruction profile")
	flag.Parse()

	g, err := kbgen.Generate(kbgen.Params{Nodes: *nodes, Seed: 42, WithDomain: true})
	if err != nil {
		log.Fatal(err)
	}
	g.KB.Preprocess()
	st := g.Summarize()
	fmt.Printf("knowledge base: %d nodes, %d links (%d-word lexicon, %d concept sequences)\n",
		st.Nodes, st.Links, st.Words, st.Roots)

	m, err := machine.NewFromOptions(machine.PaperConfig(),
		machine.WithClusters(*clusters),
		machine.WithCapacityFor(g.KB.NumNodes()))
	if err != nil {
		log.Fatal(err)
	}
	if err := m.LoadKB(g.KB); err != nil {
		log.Fatal(err)
	}
	cfg := m.Config()
	fmt.Printf("machine: %d clusters, %d PEs (%d marker units)\n\n",
		cfg.Clusters, cfg.PEs(), cfg.MarkerUnits())

	parser := nlu.NewParser(m, g)
	for _, s := range g.Domain.Sentences {
		res, err := parser.Parse(s)
		if err != nil {
			log.Fatalf("%s: %v", s.ID, err)
		}
		fmt.Printf("%s %q\n", s.ID, s.Text)
		fmt.Printf("  phrases:")
		for _, ph := range res.Phrases {
			fmt.Printf(" [%v %v]", ph.Type, ph.Tokens)
		}
		fmt.Println()
		fmt.Printf("  meaning: %s (score %.0f)", res.Winner, res.Score)
		if len(res.Cases) > 0 {
			fmt.Printf(" + cases %v", res.Cases)
		}
		fmt.Println()
		fmt.Printf("  P.P. time %v + M.B. time %v = %v (%d SNAP instructions)\n",
			res.PPTime, res.MBTime, res.Total(), res.Instructions)
		if tpl, err := parser.ExtractTemplate(res); err == nil {
			fmt.Printf("  extracted template:\n%s", indent(tpl.String()))
		}
		if *profile {
			fmt.Print(res.Profile)
		}
		fmt.Println()
	}
}
