// discourse runs DMSNAP-style multi-sentence understanding: each parsed
// event's role fillers persist as discourse entities, and pronouns in
// later sentences resolve against them by upward marker propagation with
// agreement checking.
//
// Usage:
//
//	discourse [-nodes 3000]
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

func main() {
	nodes := flag.Int("nodes", 3000, "knowledge-base size in nodes")
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
	d := nlu.NewDiscourse(nlu.NewParser(m, g))

	story := []kbgen.Sentence{
		{ID: "T1", Text: "Guerrillas bombed the embassy.",
			Words: []string{"guerrillas", "bombed", "the", "embassy"}},
		{ID: "T2", Text: "They attacked the mayor.",
			Words: []string{"they", "attacked", "the", "mayor"}},
		{ID: "T3", Text: "Yesterday they kidnapped the mayor.",
			Words: []string{"yesterday", "they", "kidnapped", "the", "mayor"}},
	}
	for _, s := range story {
		res, roles, err := d.Parse(s)
		if err != nil {
			log.Fatalf("%s: %v", s.ID, err)
		}
		fmt.Printf("%s %q\n", s.ID, s.Text)
		if res.Winner == "" {
			fmt.Println("  (no parse)")
			continue
		}
		var parts []string
		for _, r := range roles {
			parts = append(parts, fmt.Sprintf("slot%d=%s", r.Slot, r.Word))
		}
		fmt.Printf("  meaning: %s  [%s]\n", res.Winner, strings.Join(parts, " "))
		fmt.Printf("  discourse entities: %v\n", d.Entities())
		fmt.Printf("  parse %v + reference resolution so far %v\n\n", res.Total(), d.ResolveTime)
	}
}
