package machine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/partition"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
	"snap1/internal/trace"
)

// Differential testing for retrieval: execCollect builds (Node, To)
// order by construction, from a bitmap over global node IDs. The
// reference below does it the slow, obviously right way — gather every
// cluster's rows in cluster order, then stable-sort by (Node, To) — and
// charges the controller per cluster as it gathers. Rows and virtual
// time must agree exactly.

// refCollect is execCollect done by gather-then-sort.
func refCollect(m *Machine, st *runState, idx int, in *isa.Instruction, bAt timing.Time) {
	m.ctrl.Sync(bAt)
	for _, c := range m.clusters {
		m.ctrl.Sync(c.last)
	}
	start := m.ctrl.Now()
	var items []Item
	for _, c := range m.clusters {
		s := c.store
		m.ctrl.Tick(m.cost.CollectSetupPerCluster)
		before := len(items)
		s.ForEachSet(in.M1, func(local int) {
			node := s.Global(local)
			switch in.Op {
			case isa.OpCollectNode:
				items = append(items, Item{Node: node, Value: s.Value(local, in.M1),
					Origin: s.Origin(local, in.M1), Color: s.Color(local)})
			case isa.OpCollectColor:
				items = append(items, Item{Node: node, Color: s.Color(local)})
			case isa.OpCollectRelation:
				for _, l := range s.Links(local) {
					if l.Rel == in.Rel {
						items = append(items, Item{Node: node, Rel: l.Rel, Weight: l.Weight, To: l.To})
					}
				}
			}
		})
		m.ctrl.Tick(m.cost.CollectNodeCycles * int64(len(items)-before))
	}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].Node != items[j].Node {
			return items[i].Node < items[j].Node
		}
		return items[i].To < items[j].To
	})
	st.res.Collections = append(st.res.Collections, Collection{Instr: idx, Op: in.Op, Items: items})
	st.prof.CollectedNodes += int64(len(items))
	cost := m.ctrl.Now() - start
	st.prof.Overhead.Collection += cost
	st.prof.Record(in.Op, cost)
}

// refRun is RunContext's controller loop (RunFused's when f is set)
// with every COLLECT handed to refCollect. If the loop in RunContext
// changes and this copy does not, the virtual times below stop agreeing.
func refRun(t *testing.T, m *Machine, prog *isa.Program, f *isa.Fused) *Result {
	t.Helper()
	if f != nil {
		m.strict = true
		defer func() { m.strict = false }()
	}
	if prog.Mutating() {
		defer func() { m.kbGen = m.kb.Generation() }()
	}
	m.resetClocks()
	m.curRules = prog.Rules
	m.dirty = m.dirty.Union(prog.WriteSet())
	st := &runState{prof: &trace.Profile{}, res: &Result{kb: m.kb}}
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		m.broadcast(st)
		bAt := m.ctrl.Now()
		if in.Op == isa.OpPropagate {
			if len(st.batch) >= m.cfg.InstrQueueCap || st.win.Conflicts(in) {
				m.flush(st)
			}
			st.push(i, in, bAt)
			continue
		}
		if in.Serializing() || st.win.Conflicts(in) {
			m.flush(st)
			bAt = timing.Max(bAt, m.ctrl.Now())
		}
		if isa.GroupOf(in.Op) == isa.GroupCollect {
			refCollect(m, st, i, in, bAt)
		} else if err := m.exec(st, i, in, bAt); err != nil {
			t.Fatalf("reference run, instruction %d (%s): %v", i, in.Op, err)
		}
	}
	m.flush(st)
	end := m.ctrl.Now()
	for _, c := range m.clusters {
		end = timing.Max(end, c.last)
	}
	st.prof.Elapsed = end
	st.res.Time, st.res.Profile = end, st.prof
	return st.res
}

// collectKB is randomKB plus a link-free hub node, for the mutation
// cases to hang rows on. Called twice with equal seeds it builds equal
// networks, one for the machine under test and one for the reference
// (a mutating program writes its machine's KB).
func collectKB(seed int64) (*semnet.KB, []semnet.RelType, semnet.NodeID) {
	kb, rels, cols := randomKB(rand.New(rand.NewSource(seed)))
	hub := kb.MustAddNode("hub", cols[0])
	return kb, rels, hub
}

func collectMachine(t *testing.T, kb *semnet.KB, strat partition.Func) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Clusters = 5 // not a divisor of most node counts: uneven clusters
	cfg.NodesPerCluster = kb.NumNodes() + 32
	cfg.Partition = strat
	cfg.MaxDepth = 32
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// sameResult holds got to the reference: rows, end time, and the
// collection share of it.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Collections, want.Collections) {
		for i := range want.Collections {
			if i >= len(got.Collections) || !reflect.DeepEqual(got.Collections[i], want.Collections[i]) {
				t.Fatalf("%s: collection %d differs from the sort reference\n got %+v\nwant %+v",
					what, i, got.Collected(i), want.Collected(i))
			}
		}
		t.Fatalf("%s: %d collections, reference has %d", what, len(got.Collections), len(want.Collections))
	}
	if got.Time != want.Time {
		t.Fatalf("%s: virtual time %v, reference %v", what, got.Time, want.Time)
	}
	if g, w := got.Profile.Overhead.Collection, want.Profile.Overhead.Collection; g != w {
		t.Fatalf("%s: collection time %v, reference %v", what, g, w)
	}
}

// collectAll appends all three retrieval ops on marker mk.
func collectAll(p *isa.Program, mk semnet.MarkerID, rels []semnet.RelType) *isa.Program {
	p.CollectNode(mk).CollectColor(mk)
	for _, r := range rels {
		p.CollectRelation(mk, r)
	}
	return p
}

func TestCollectMatchesSortReference(t *testing.T) {
	for _, name := range []string{"sequential", "round-robin", "semantic"} {
		strat, err := partition.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			kbA, rels, hub := collectKB(seed)
			kbB, _, _ := collectKB(seed)
			m, ref := collectMachine(t, kbA, strat), collectMachine(t, kbB, strat)
			n := kbA.NumNodes()
			node := func(i int) semnet.NodeID { return semnet.NodeID((int(seed)*7 + i*13) % n) }

			// dense: SET-MARKER seeds every node, a middle COLLECT feeds
			// later broadcast times. sparse: a propagation frontier, plus
			// a marker nobody set.
			dense := func() *isa.Program {
				p := isa.NewProgram().Set(0, 1.5)
				collectAll(p, 0, rels)
				return p.Set(semnet.Binary(3), 0).CollectNode(semnet.Binary(3))
			}
			sparse := func(start int) *isa.Program {
				p := isa.NewProgram().SearchNode(node(start), 1, 0).
					Propagate(1, 2, rules.Path(rels[0]), semnet.FuncAdd)
				return collectAll(p, 2, rels).CollectNode(9)
			}
			// unsort hangs rows on the hub out of To order and with a
			// repeated (Node, To), then collects the hub's relation rows.
			unsort := isa.NewProgram().
				Create(hub, rels[0], 1, node(5)).
				Create(hub, rels[0], 2, node(1)).
				Create(hub, rels[1], 9, node(2)).
				Create(hub, rels[0], 3, node(1)).
				Create(hub, rels[0], 4, node(3)).
				Delete(hub, rels[0], node(5)).
				Create(hub, rels[0], 5, node(0)).
				SearchNode(hub, 4, 0)
			collectAll(unsort, 4, rels)

			run := func(what string, p *isa.Program) {
				t.Helper()
				m.ClearMarkers()
				ref.ClearMarkers()
				got, err := m.Run(p)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameResult(t, fmt.Sprintf("%s seed %d %s", name, seed, what), got, refRun(t, ref, p, nil))
			}
			run("dense", dense())
			run("sparse", sparse(0))
			run("unsort", unsort)
			run("dense after mutation", dense())
			run("sparse after mutation", sparse(1))

			// Fused: four queries in one run, demultiplexed.
			progs := []*isa.Program{sparse(2), dense(), sparse(3), sparse(4)}
			f, err := isa.Fuse(progs)
			if err != nil {
				t.Fatal(err)
			}
			m.ClearMarkers()
			ref.ClearMarkers()
			got, err := m.RunFused(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			want := refRun(t, ref, f.Program, f)
			sameResult(t, fmt.Sprintf("%s seed %d fused", name, seed), got, want)
			gotParts, wantParts := got.Demux(f), want.Demux(f)
			for q := range progs {
				sameResult(t, fmt.Sprintf("%s seed %d fused member %d", name, seed, q), gotParts[q], wantParts[q])
			}
		}
	}
}

// TestCollectRowOrderPinned pins the order on a case small enough to
// read: one node's relation rows after mutations listed them out of To
// order, with one (Node, To) pair twice.
func TestCollectRowOrderPinned(t *testing.T) {
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	r := kb.Relation("r")
	ids := make([]semnet.NodeID, 4)
	for i := range ids {
		ids[i] = kb.MustAddNode(fmt.Sprintf("n%d", i), col)
	}
	kb.MustAddLink(ids[0], r, 1, ids[3])
	kb.MustAddLink(ids[2], r, 7, ids[1])
	m := collectMachine(t, kb, partition.RoundRobin)
	res, err := m.Run(isa.NewProgram().
		Create(ids[0], r, 2, ids[1]).
		Create(ids[0], r, 3, ids[3]).
		Create(ids[0], r, 4, ids[2]).
		Set(0, 0).CollectRelation(0, r))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, it := range res.Collected(0) {
		got = append(got, fmt.Sprintf("%d>%d/%v", it.Node, it.To, it.Weight))
	}
	want := []string{"0>1/2", "0>2/4", "0>3/1", "0>3/3", "2>1/7"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}

// TestCollectRunAllocs fences the allocation count of the benchmark's
// three-line query (search-node, propagate, collect-node) on a loaded
// machine: 18 before COLLECT stopped merging, and it must not grow.
func TestCollectRunAllocs(t *testing.T) {
	kb, ids, isA := chainKB(t)
	m := collectMachine(t, kb, partition.Semantic)
	p := isa.NewProgram().SearchNode(ids[0], 1, 0).
		Propagate(1, 2, rules.Path(isA), semnet.FuncAdd).CollectNode(2)
	if _, err := m.Run(p); err != nil { // size the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		m.ClearMarkers()
		if _, err := m.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 18 {
		t.Fatalf("three-line query allocates %v times a run, fence is 18", allocs)
	}
}
