package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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
	for _, name := range []string{"sequential", "round-robin", "semantic"} {
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

// TestFrozenRowsSurviveKBWrites pins what snapshot isolation rests on now
// that stores index the knowledge base's frozen base slab: no write
// rewrites a base position. A replica adopts a published snapshot whose
// stores read the KB's own rows, and a goroutine reads them while the
// writer commits a DELETE of a laid-out link and then its CREATE on the
// odd nodes, and a CREATE and then its DELETE on the even ones. The
// writes move the rows they touch into the private slabs of the KB and
// of the writer's stores, and push the KB past a compaction into a fresh
// base. Every row the replica reads must equal its copy from before the
// first write, and under -race a write to memory the replica reads fails
// as a race.
func TestFrozenRowsSurviveKBWrites(t *testing.T) {
	const nodes = 256
	b := semnet.NewBuilder(nodes, 2*nodes)
	rel, write := b.Relation("r"), b.Relation("w")
	for i := range nodes {
		b.MustAddNode(fmt.Sprint("n", i), 0)
	}
	next := func(id semnet.NodeID) semnet.NodeID { return (id + 1) % nodes }
	for i := range semnet.NodeID(nodes) {
		b.MustAddLink(i, rel, 1, next(i))
		b.MustAddLink(i, rel, 2, (7*i+3)%nodes)
	}
	kb := b.KB()
	writer, err := New(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	replica, err := New(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	replica.Adopt(writer.Publish())
	const untouched = semnet.NodeID(0)
	laidOut := &kb.Links(untouched)[0]
	if &replica.clusters[replica.assign[untouched]].store.Links(int(replica.localIdx[untouched]))[0] != laidOut {
		t.Fatal("the replica's stores hold a copy of the KB's links, not its base")
	}
	rows := make([][]semnet.Link, nodes)
	for id := range rows {
		rows[id] = linksOf(replica, semnet.NodeID(id))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for id, want := range rows {
				if got := linksOf(replica, semnet.NodeID(id)); !slices.Equal(got, want) {
					t.Errorf("node %d: the snapshot's row became %v, was %v", id, got, want)
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for round := range 2 {
		for id := semnet.NodeID(1); id < nodes; id++ {
			p := isa.NewProgram()
			switch {
			case id%2 == 1 && round == 0:
				p.Delete(id, rel, next(id))
			case id%2 == 1:
				p.Create(id, rel, 1, next(id))
			case round == 0:
				p.Create(id, write, 3, untouched)
			default:
				p.Delete(id, write, untouched)
			}
			if _, err := writer.Run(p); err != nil {
				t.Fatal(err)
			}
			writer.Publish()
		}
	}
	close(done)
	wg.Wait()
	if &kb.Links(untouched)[0] == laidOut {
		t.Error("node 0's row is where the Builder laid it: the writes never pushed the KB past a compaction")
	}
	if kb.NumLinks() != 2*nodes {
		t.Errorf("the KB holds %d links after the writes, want %d", kb.NumLinks(), 2*nodes)
	}
}
