// inheritance runs the Fig. 15 experiment interactively: root-to-leaf
// property inheritance over growing knowledge bases on SNAP-1's MIMD
// selective propagation versus the CM-2-style SIMD step-loop model.
//
// Usage:
//
//	inheritance [-max 25600]
package main

import (
	"flag"
	"fmt"
	"log"

	"snap1/internal/baseline"
	"snap1/internal/inherit"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

func main() {
	max := flag.Int("max", 25600, "largest knowledge base in the sweep")
	flag.Parse()

	cm2 := baseline.DefaultCM2()
	fmt.Printf("%-10s %-8s %-6s %-12s %-12s %s\n",
		"KB nodes", "reached", "depth", "SNAP-1", "CM-2 model", "advantage")
	for n := 400; n <= *max; n *= 2 {
		g, err := kbgen.Generate(kbgen.Params{Nodes: n, Seed: 42})
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

		snap, err := inherit.Inheritance(m, g)
		if err != nil {
			log.Fatal(err)
		}
		cm, err := cm2.Inherit(g.KB, g.HierRoot, g.Rel.Subsumes)
		if err != nil {
			log.Fatal(err)
		}
		if snap.Reached != cm.Reached {
			log.Fatalf("functional divergence: SNAP reached %d, CM-2 %d", snap.Reached, cm.Reached)
		}
		fmt.Printf("%-10d %-8d %-6d %-12v %-12v %.1fx\n",
			n, snap.Reached, cm.Steps, snap.Time, cm.Time,
			float64(cm.Time)/float64(snap.Time))
	}
	fmt.Println("\nSNAP-1's MIMD marker units propagate selectively under local control;")
	fmt.Println("the SIMD model pays a controller round trip on every step of the")
	fmt.Println("critical path, so SNAP-1 wins here — but its per-node slope is steeper,")
	fmt.Println("and the curves cross beyond the prototype's 32K-node capacity (Fig. 15).")

	exceptionsDemo()
}

// exceptionsDemo shows inheritance with exceptions (block/restore cancel
// markers) on the canonical penguin lattice.
func exceptionsDemo() {
	kb := semnet.NewKB()
	col := kb.ColorFor("class")
	down := kb.Relation("subsumes")
	names := []struct{ name, parent string }{
		{"animal", ""}, {"bird", "animal"}, {"sparrow", "bird"},
		{"penguin", "bird"}, {"rockhopper", "penguin"}, {"magic-penguin", "penguin"},
	}
	ids := map[string]semnet.NodeID{}
	for _, n := range names {
		ids[n.name] = kb.MustAddNode(n.name, col)
		if n.parent != "" {
			kb.MustAddLink(ids[n.parent], down, 1, ids[n.name])
		}
	}
	m, err := machine.NewFromOptions(machine.PaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		log.Fatal(err)
	}
	g := &kbgen.Generated{KB: kb}
	g.Rel.Subsumes = down

	fmt.Println("\nInheritance with exceptions: \"birds fly\", cancelled at penguin,")
	fmt.Println("restored at magic-penguin (cancel-marker propagation):")
	res, err := inherit.InheritWithExceptions(m, g, inherit.PropertyQuery{
		Source: ids["bird"],
		Exceptions: []inherit.Exception{
			{At: ids["penguin"]},
			{At: ids["magic-penguin"], Restore: true},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("  flies:")
	for _, it := range res.Collected {
		fmt.Printf(" %s", kb.Name(kb.Canonical(it.Node)))
	}
	fmt.Printf("   (%v simulated)\n", res.Time)
}
