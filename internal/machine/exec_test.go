package machine

import (
	"fmt"
	"strings"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/partition"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// gridKB builds a small two-color network for opcode tests.
func gridKB(t *testing.T) (*semnet.KB, map[string]semnet.NodeID) {
	t.Helper()
	kb := semnet.NewKB()
	red, blue := kb.ColorFor("red"), kb.ColorFor("blue")
	rel := kb.Relation("r")
	ids := make(map[string]semnet.NodeID)
	for i, name := range []string{"r0", "r1", "r2", "b0", "b1"} {
		color := red
		if strings.HasPrefix(name, "b") {
			color = blue
		}
		ids[name] = kb.MustAddNode(name, color)
		_ = i
	}
	kb.MustAddLink(ids["r0"], rel, 1, ids["b0"])
	kb.MustAddLink(ids["r1"], rel, 2, ids["b1"])
	return kb, ids
}

func gridMachine(t *testing.T, det bool) (*Machine, *semnet.KB, map[string]semnet.NodeID) {
	t.Helper()
	kb, ids := gridKB(t)
	cfg := DefaultConfig()
	cfg.Clusters = 2
	cfg.NodesPerCluster = 8
	cfg.Deterministic = det
	cfg.Partition = partition.RoundRobin
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	return m, kb, ids
}

func TestSearchColorAndCollectColor(t *testing.T) {
	m, _, _ := gridMachine(t, true)
	p := isa.NewProgram()
	b := semnet.Binary(0)
	p.SearchColor(1, b, 0) // "blue" interned second => color 1
	p.CollectColor(b)
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	items := res.Collected(0)
	if len(items) != 2 {
		t.Fatalf("collected %d blue nodes, want 2", len(items))
	}
	for _, it := range items {
		if it.Color != 1 {
			t.Errorf("item color %d", it.Color)
		}
	}
}

func TestSearchRelationAndCollectRelation(t *testing.T) {
	m, kb, ids := gridMachine(t, true)
	rel := kb.Relation("r")
	p := isa.NewProgram()
	b := semnet.Binary(1)
	p.SearchRelation(rel, b, 0)
	p.CollectRelation(b, rel)
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MarkerCount(b); got != 2 {
		t.Fatalf("SEARCH-RELATION marked %d nodes, want 2 (r0, r1)", got)
	}
	items := res.Collected(0)
	if len(items) != 2 {
		t.Fatalf("COLLECT-RELATION returned %d rows", len(items))
	}
	for _, it := range items {
		if it.Rel != rel {
			t.Error("wrong relation in row")
		}
		if it.Node == ids["r0"] && (it.To != ids["b0"] || it.Weight != 1) {
			t.Errorf("row %+v", it)
		}
	}
}

func TestCreateDeleteSetColor(t *testing.T) {
	m, kb, ids := gridMachine(t, true)
	rel := kb.Relation("r")
	p := isa.NewProgram()
	p.Create(ids["r2"], rel, 0.5, ids["b1"])
	p.SetColor(ids["r2"], 7)
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	links := m.LinksOf(ids["r2"])
	if len(links) != 1 || links[0].To != ids["b1"] || links[0].Weight != 0.5 {
		t.Fatalf("CREATE result %+v", links)
	}
	p2 := isa.NewProgram()
	p2.Delete(ids["r2"], rel, ids["b1"])
	if _, err := m.Run(p2); err != nil {
		t.Fatal(err)
	}
	if len(m.LinksOf(ids["r2"])) != 0 {
		t.Fatal("DELETE left the link")
	}
	node, _ := kb.Node(ids["r2"])
	if node.Color != 7 {
		t.Fatal("SET-COLOR not mirrored to the logical KB")
	}
}

func TestMarkerCreateDeleteWithReverse(t *testing.T) {
	m, kb, ids := gridMachine(t, true)
	fwd, rev := kb.Relation("instance-of"), kb.Relation("has-instance")
	b := semnet.Binary(2)
	p := isa.NewProgram()
	p.SearchNode(ids["r0"], b, 0)
	p.SearchNode(ids["r1"], b, 0)
	p.MarkerCreate(b, fwd, ids["b0"], rev, true)
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(m.LinksOf(ids["r0"])) != 2 { // original r link + instance-of
		t.Fatalf("forward link missing: %+v", m.LinksOf(ids["r0"]))
	}
	revLinks := 0
	for _, l := range m.LinksOf(ids["b0"]) {
		if l.Rel == rev {
			revLinks++
		}
	}
	if revLinks != 2 {
		t.Fatalf("reverse links = %d, want 2", revLinks)
	}
	p2 := isa.NewProgram()
	p2.MarkerDelete(b, fwd, ids["b0"], rev, true)
	if _, err := m.Run(p2); err != nil {
		t.Fatal(err)
	}
	if len(m.LinksOf(ids["r0"])) != 1 || len(m.LinksOf(ids["b0"])) != 0 {
		t.Fatal("MARKER-DELETE did not reverse MARKER-CREATE")
	}
}

func TestMarkerSetColor(t *testing.T) {
	m, _, ids := gridMachine(t, true)
	b := semnet.Binary(3)
	p := isa.NewProgram()
	p.SearchNode(ids["b0"], b, 0)
	p.MarkerSetColor(b, 9)
	p.CollectColor(b)
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collected(0)[0].Color != 9 {
		t.Fatal("MARKER-SET-COLOR")
	}
}

func TestNotMarkerConditional(t *testing.T) {
	m, _, ids := gridMachine(t, true)
	c0, b := semnet.MarkerID(0), semnet.Binary(4)
	p := isa.NewProgram()
	p.SearchNode(ids["r0"], c0, 1)
	p.SearchNode(ids["r1"], c0, 5)
	// b := NOT (c0 set AND value <= 2): marks everything except r0.
	p.Not(c0, b, 2, isa.CondLE)
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if m.TestMarker(ids["r0"], b) {
		t.Error("r0 satisfies the condition and must be excluded")
	}
	if !m.TestMarker(ids["r1"], b) {
		t.Error("r1 fails the condition and must be set")
	}
	if !m.TestMarker(ids["b0"], b) {
		t.Error("unmarked nodes must be set")
	}
}

func TestSetFuncClear(t *testing.T) {
	m, _, ids := gridMachine(t, true)
	c := semnet.MarkerID(5)
	p := isa.NewProgram()
	p.Set(c, 2)
	p.Func(c, semnet.FuncMul, 3)
	p.CollectNode(c)
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	items := res.Collected(0)
	if len(items) != 5 {
		t.Fatalf("SET-MARKER reached %d nodes", len(items))
	}
	for _, it := range items {
		if it.Value != 6 {
			t.Fatalf("FUNC-MARKER value %v, want 6", it.Value)
		}
	}
	p2 := isa.NewProgram()
	p2.ClearM(c)
	if _, err := m.Run(p2); err != nil {
		t.Fatal(err)
	}
	if m.MarkerCount(c) != 0 {
		t.Fatal("CLEAR-MARKER")
	}
	_ = ids
}

func TestCommEndIsHarmlessWhenQuiet(t *testing.T) {
	m, _, _ := gridMachine(t, true)
	p := isa.NewProgram()
	p.Barrier()
	p.Barrier()
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("barrier must still consume controller time")
	}
}

func TestRunErrors(t *testing.T) {
	m, kb, ids := gridMachine(t, true)
	rel := kb.Relation("r")

	// Unknown node operands.
	for _, p := range []*isa.Program{
		isa.NewProgram().SearchNode(semnet.NodeID(999), 0, 0),
		isa.NewProgram().Create(semnet.NodeID(999), rel, 0, ids["b0"]),
		isa.NewProgram().Delete(semnet.NodeID(999), rel, ids["b0"]),
		isa.NewProgram().SetColor(semnet.NodeID(999), 1),
		isa.NewProgram().MarkerCreate(0, rel, semnet.NodeID(999), 0, false),
	} {
		if _, err := m.Run(p); err == nil {
			t.Errorf("program %v must fail", isa.Disassemble(&p.Instrs[0], kb, p.Rules))
		}
	}

	// Relation slot overflow through MARKER-CREATE.
	p := isa.NewProgram()
	b := semnet.Binary(5)
	p.SearchNode(ids["r2"], b, 0)
	for i := 0; i < semnet.RelationSlots+1; i++ {
		p.MarkerCreate(b, rel, ids["b0"], 0, false)
	}
	if _, err := m.Run(p); err == nil {
		t.Error("slot overflow must surface")
	}
}

func TestSubnodePropagationAndCollect(t *testing.T) {
	// A hub with 40 out-links is split by the preprocessor; propagation
	// must reach all 40 destinations and COLLECT must canonicalize the
	// subnodes away.
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("r")
	hub := kb.MustAddNode("hub", col)
	for i := 0; i < 40; i++ {
		id := kb.MustAddNode(string(rune('A'+i/10))+string(rune('0'+i%10)), col)
		kb.MustAddLink(hub, rel, 1, id)
	}
	for _, det := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Clusters = 4
		cfg.NodesPerCluster = 16
		cfg.Deterministic = det
		cfg.Partition = partition.RoundRobin
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadKB(kb); err != nil {
			t.Fatal(err)
		}
		p := isa.NewProgram()
		src, dst := semnet.MarkerID(0), semnet.MarkerID(1)
		p.SearchNode(hub, src, 0)
		p.Propagate(src, dst, rules.Step(rel), semnet.FuncAdd)
		p.CollectNode(dst)
		res, err := m.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		names := res.Names(0)
		// All 40 leaves, and the canonicalized hub itself appears only if
		// a subnode was marked (it is: cont hops set dst on subnodes).
		leaves := 0
		for _, n := range names {
			if n != "hub" {
				leaves++
			}
		}
		if leaves != 40 {
			t.Fatalf("det=%v: propagation reached %d of 40 leaves: %v", det, leaves, names)
		}
	}
}

func TestClearMarkersResetsEverything(t *testing.T) {
	m, _, _ := gridMachine(t, true)
	p := isa.NewProgram()
	p.Set(3, 1)
	p.Set(semnet.Binary(9), 0)
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	m.ClearMarkers()
	if m.MarkerCount(3) != 0 || m.MarkerCount(semnet.Binary(9)) != 0 {
		t.Fatal("ClearMarkers")
	}
}

// A pooled replica is reset by ClearMarkers, which clears status bits and
// leaves the complex-marker registers as the last query wrote them. The
// three kernels that set a complex marker's bit with no operand register
// to copy — SET-MARKER (origin), AND/OR of two binary markers (origin),
// NOT-MARKER (value and origin) — must therefore write what a fresh
// machine holds, or the next caller is answered with the previous
// caller's registers.
func TestUsedReplicaMatchesFresh(t *testing.T) {
	const c1, c2 = semnet.MarkerID(1), semnet.MarkerID(2)
	b1, b2 := semnet.Binary(1), semnet.Binary(2)
	for _, det := range []bool{true, false} {
		used, ids, rel := newSmall(t, det, partition.RoundRobin)
		defer used.Close()
		// Someone else's query, from b (node 1: not the origin a fresh
		// register reads): c2 reaches c and d with a value and b as origin.
		dirty := isa.NewProgram()
		dirty.SearchNode(ids[1], c1, 3)
		dirty.Propagate(c1, c2, rules.Path(rel), semnet.FuncAdd)
		dirty.CollectNode(c2)
		for name, p := range map[string]*isa.Program{
			"set": isa.NewProgram().Set(c2, 5).CollectNode(c2),
			"and": isa.NewProgram().Set(b1, 0).Set(b2, 0).And(b1, b2, c2, semnet.FuncAdd).CollectNode(c2),
			"or":  isa.NewProgram().Set(b1, 0).Or(b1, b2, c2, semnet.FuncAdd).CollectNode(c2),
			"not": isa.NewProgram().Not(b1, c2, 0, isa.CondNone).CollectNode(c2),
		} {
			if res, err := used.Run(dirty); err != nil || len(res.Collected(0)) != 2 {
				t.Fatalf("det=%v: dirtying run reached %d nodes (err %v), want 2", det, len(res.Collected(0)), err)
			}
			used.ClearMarkers()
			got, err := used.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, _ := newSmall(t, det, partition.RoundRobin)
			want, err := fresh.Run(p)
			fresh.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Collected(0)) != len(ids) {
				t.Fatalf("det=%v %s: fresh machine collected %d rows, want %d", det, name, len(want.Collected(0)), len(ids))
			}
			for i, row := range want.Collected(0) {
				if got.Collected(0)[i] != row {
					t.Errorf("det=%v %s: row %d on the used replica %+v, on a fresh machine %+v", det, name, i, got.Collected(0)[i], row)
				}
			}
			used.ClearMarkers()
		}
	}
}

// The same three kernels inside one run: they redefine the destination
// whole, registers included, so what an earlier instruction of the run
// wrote there does not show through either — not even under a bit that
// was on all along. A destination that kept them where its bit was
// already on would make a preceding CLEAR-MARKER observable, and the
// optimizer deletes a CLEAR ahead of a whole redefinition as dead.
func TestStatusKernelsOverwriteRegisters(t *testing.T) {
	const c2 = semnet.MarkerID(2)
	b1, b2 := semnet.Binary(1), semnet.Binary(2)
	// SEARCH-COLOR blue: c2 at b0 and b1, value 5, origin the node itself.
	seeded := func() *isa.Program { return isa.NewProgram().SearchColor(1, c2, 5) }
	for _, tc := range []struct {
		name  string
		p     *isa.Program
		value float32
	}{
		{"not", seeded().Not(b1, c2, 0, isa.CondNone), 0},
		{"not-where", seeded().Not(b1, c2, 1, isa.CondLT), 0},
		{"set", seeded().Set(c2, 7), 7},
		{"or", seeded().Set(b1, 0).Or(b1, b2, c2, semnet.FuncAdd), 0},
		{"and", seeded().Set(b1, 0).Set(b2, 0).And(b1, b2, c2, semnet.FuncAdd), 0},
	} {
		tc.p.CollectNode(c2)
		for _, det := range []bool{true, false} {
			m, _, ids := gridMachine(t, det)
			res, err := m.Run(tc.p)
			m.Close()
			if err != nil {
				t.Fatal(err)
			}
			rows := res.Collected(0)
			if len(rows) != len(ids) {
				t.Fatalf("%s det=%v: collected %d rows, want %d", tc.name, det, len(rows), len(ids))
			}
			for _, row := range rows {
				if row.Value != tc.value || row.Origin != 0 {
					t.Errorf("%s det=%v: node %d holds value %v origin %d, want %v and 0",
						tc.name, det, row.Node, row.Value, row.Origin, tc.value)
				}
			}
		}
	}
}

// SET-MARKER and NOT-MARKER turn bits on; neither may turn one on past a
// cluster's node count, where no kernel would ever clear it again.
// MarkerCount sweeps whole planes, tails included, so a stray bit shows
// as a count above the network's size.
func TestSetAndNotLeaveTailsZero(t *testing.T) {
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	const nodes = 3*64 + 1 // dealt round-robin: windows of 65, 64 and 64 nodes, two host words each
	for i := 0; i < nodes; i++ {
		kb.MustAddNode(fmt.Sprintf("n%d", i), col)
	}
	cfg := DefaultConfig()
	cfg.Clusters = 3
	cfg.NodesPerCluster = 70
	cfg.Partition = partition.RoundRobin
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	b0, b1, b3, c2 := semnet.Binary(0), semnet.Binary(1), semnet.Binary(3), semnet.MarkerID(2)
	p := isa.NewProgram().Set(b0, 0).Not(b0, b1, 0, isa.CondNone).Not(b1, c2, 0, isa.CondNone)
	// The conditional form: c2 holds value 0 < 1 everywhere, so it
	// complements to nothing; b1 is empty, so it complements to everything.
	p.Not(c2, b0, 1, isa.CondLT).Not(b1, b3, 1, isa.CondLT)
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	for mk, want := range map[semnet.MarkerID]int{b0: 0, b1: 0, b3: nodes, c2: nodes} {
		if got := m.MarkerCount(mk); got != want {
			t.Errorf("marker %d set at %d nodes, want %d", mk, got, want)
		}
	}
}
