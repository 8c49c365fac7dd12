package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/partition"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// TestWriterTablesMatchReloadUnderItsAssignment pins what a published
// snapshot relies on: the tables a writer reaches by running a random
// write tape — CREATE, DELETE and SET-COLOR, one program each, published
// after each as the engine's writer is — equal the tables a fresh LoadKB
// of the mutated KB builds under the writer's assignment. Placement,
// local index, colour, function, links in order, and one probe run's
// collections and virtual time must agree, under every partition
// strategy: the assignment is handed over, never derived again.
func TestWriterTablesMatchReloadUnderItsAssignment(t *testing.T) {
	for _, name := range []string{"sequential", "round-robin", "semantic", "refined"} {
		t.Run(name, func(t *testing.T) {
			g, err := kbgen.Generate(kbgen.Params{Nodes: 3000, Seed: 11, WithDomain: true})
			if err != nil {
				t.Fatal(err)
			}
			kb := g.KB
			cfg := PaperConfig()
			if cfg.Partition, err = partition.ByName(name); err != nil {
				t.Fatal(err)
			}
			writer, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := writer.LoadKB(kb); err != nil {
				t.Fatal(err)
			}

			rel, cols := kb.Relation("tape"), []semnet.Color{kb.ColorFor("tape-a"), kb.ColorFor("tape-b"), g.Col.Root}
			rng := rand.New(rand.NewSource(5))
			n := kb.NumNodes()
			for w := 0; w < 400; w++ {
				src := semnet.NodeID(rng.Intn(n))
				links := linksOf(writer, src)
				p := isa.NewProgram()
				switch op := rng.Intn(3); {
				case op == 0 && len(links) < semnet.RelationSlots:
					p.Create(src, rel, float32(rng.Intn(8)), semnet.NodeID(rng.Intn(n)))
				case op == 1 && len(links) > 0:
					l := links[rng.Intn(len(links))]
					p.Delete(src, l.Rel, l.To)
				default:
					p.SetColor(src, cols[rng.Intn(len(cols))])
				}
				if _, err := writer.Run(p); err != nil {
					t.Fatalf("write %d: %v", w, err)
				}
				writer.Publish()
			}

			fresh := cfg
			fresh.Placement = false
			fresh.Partition = func(*semnet.KB, int, int) (partition.Assignment, error) {
				return slices.Clone(writer.assign), nil
			}
			reload, err := New(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if err := reload.LoadKB(kb); err != nil {
				t.Fatal(err)
			}
			for id := 0; id < n; id++ {
				v := semnet.NodeID(id)
				cw, cr := writer.ClusterOf(v), reload.ClusterOf(v)
				lw, lr := int(writer.localIdx[id]), int(reload.localIdx[id])
				if cw != cr || lw != lr {
					t.Fatalf("node %d sits at cluster %d local %d on the writer, %d/%d on the reload", id, cw, lw, cr, lr)
				}
				sw, sr := writer.clusters[cw].store, reload.clusters[cr].store
				if sw.Color(lw) != sr.Color(lr) || sw.Fn(lw) != sr.Fn(lr) {
					t.Fatalf("node %d: colour/function %d/%d on the writer, %d/%d on the reload", id, sw.Color(lw), sw.Fn(lw), sr.Color(lr), sr.Fn(lr))
				}
				if a, b := linksOf(writer, v), linksOf(reload, v); !slices.Equal(a, b) {
					t.Fatalf("node %d: links %v on the writer, %v on the reload", id, a, b)
				}
			}

			probe := isa.NewProgram()
			probe.SearchColor(cols[0], 1, 0)
			probe.Propagate(1, 2, rules.Path(rel), semnet.FuncAdd)
			probe.SearchColor(g.Col.Root, 3, 0)
			probe.Propagate(3, 4, rules.Path(g.Rel.Elem), semnet.FuncAdd)
			probe.Barrier()
			probe.CollectNode(2)
			probe.CollectNode(4)
			var got [2]string
			for i, m := range []*Machine{writer, reload} {
				m.ClearMarkers()
				res, err := m.Run(probe)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = fmt.Sprint(res.Time, res.Collections)
			}
			if got[0] != got[1] {
				t.Errorf("the probe on the writer:\n %s\non the reload:\n %s", got[0], got[1])
			}
		})
	}
}
