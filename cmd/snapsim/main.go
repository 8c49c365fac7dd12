// Command snapsim runs SNAP assembly programs on the simulated SNAP-1
// array.
//
// Usage:
//
//	snapsim -kb network.kb program.snap
//	snapsim -gen 4000 -domain program.snap
//
// The knowledge base comes either from a text network file (-kb, see
// internal/kbfile) or a generated synthetic network (-gen N, optionally
// with the newswire micro-domain embedded via -domain). The program is
// SNAP assembly (see internal/isa's Assembler): one instruction per line,
// key=value operands, names resolved against the knowledge base.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"snap1/internal/isa"
	"snap1/internal/kbfile"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("snapsim: ")

	kbPath := flag.String("kb", "", "knowledge-base file (kbfile format)")
	gen := flag.Int("gen", 0, "generate a synthetic knowledge base of N nodes instead")
	domain := flag.Bool("domain", false, "embed the newswire micro-domain in the generated network")
	seed := flag.Int64("seed", 42, "generation seed")
	clusters := flag.Int("clusters", 16, "cluster count")
	mus := flag.Int("mus", 2, "marker units per cluster")
	part := flag.String("partition", "semantic", "partitioning: sequential, round-robin, or semantic")
	place := flag.Bool("place", false, "follow partitioning with hop-aware hypercube placement")
	det := flag.Bool("det", true, "run on the lockstep engine (exact virtual times); -det=false selects the goroutine-per-cluster reference engine")
	verbose := flag.Bool("v", false, "print the instruction profile")
	repeat := flag.Int("repeat", 1, "run the program N times (markers cleared between runs; useful with profiling)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the runs to this file")
	memProfile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()

	if flag.NArg() != 1 {
		log.Fatal("usage: snapsim [-kb file | -gen N] program.snap")
	}

	kb, err := loadKB(*kbPath, *gen, *domain, *seed)
	if err != nil {
		log.Fatal(err)
	}
	kb.Preprocess()

	progFile, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer progFile.Close()
	prog, err := isa.NewAssembler(kb).Assemble(progFile)
	if err != nil {
		log.Fatalf("%s: %v", flag.Arg(0), err)
	}

	m, err := machine.NewFromOptions(machine.DefaultConfig(),
		machine.WithClusters(*clusters),
		machine.WithMarkerUnits(*mus, 0),
		machine.WithPartition(*part),
		machine.WithPlacement(*place),
		machine.WithDeterministic(*det),
		machine.WithCapacityFor(kb.NumNodes()))
	if err != nil {
		log.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		log.Fatal(err)
	}

	defer m.Close()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *repeat < 1 {
		*repeat = 1
	}
	var res *machine.Result
	for i := 0; i < *repeat; i++ {
		if i > 0 {
			m.ClearMarkers()
		}
		if res, err = m.Run(prog); err != nil {
			log.Fatal(err)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}

	cfg := m.Config()
	fmt.Printf("ran %d instructions on %d clusters (%d PEs) over %d nodes in %v simulated\n",
		prog.Len(), cfg.Clusters, cfg.PEs(), kb.NumNodes(), res.Time)
	for i, coll := range res.Collections {
		fmt.Printf("collection %d (%v, instruction %d): %d items\n",
			i, coll.Op, coll.Instr, len(coll.Items))
		for _, it := range coll.Items {
			switch coll.Op {
			case isa.OpCollectRelation:
				fmt.Printf("  %s -%s(%g)-> %s\n",
					kb.Name(kb.Canonical(it.Node)), kb.RelationName(it.Rel),
					it.Weight, kb.Name(kb.Canonical(it.To)))
			case isa.OpCollectColor:
				fmt.Printf("  %s : %s\n",
					kb.Name(kb.Canonical(it.Node)), kb.ColorName(it.Color))
			default:
				fmt.Printf("  %s = %g (origin %s)\n",
					kb.Name(kb.Canonical(it.Node)), it.Value,
					kb.Name(kb.Canonical(it.Origin)))
			}
		}
	}
	if *verbose {
		fmt.Print(res.Profile)
	}
}

func loadKB(path string, gen int, domain bool, seed int64) (*semnet.KB, error) {
	switch {
	case path != "" && gen != 0:
		return nil, fmt.Errorf("-kb and -gen are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return kbfile.Parse(f)
	case gen != 0:
		g, err := kbgen.Generate(kbgen.Params{Nodes: gen, Seed: seed, WithDomain: domain})
		if err != nil {
			return nil, err
		}
		return g.KB, nil
	default:
		return nil, fmt.Errorf("need -kb file or -gen N")
	}
}
