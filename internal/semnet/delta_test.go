package semnet

import "testing"

// deltaKB builds a small KB with the delta log already enabled, so every
// subsequent mutation is recorded.
func deltaKB(t *testing.T, nodes int) (*KB, []NodeID) {
	t.Helper()
	kb := NewKB()
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = kb.MustAddNode(string(rune('a'+i%26))+string(rune('0'+i/26)), kb.ColorFor("c"))
	}
	kb.EnableDeltaLog()
	return kb, ids
}

// TestDeltaLogRecordsMutations checks that each mutating KB call appends
// exactly one record carrying the right op, strictly ascending
// generations, and the mutation payload.
func TestDeltaLogRecordsMutations(t *testing.T) {
	kb, ids := deltaKB(t, 4)
	rel := kb.Relation("is-a")
	base := kb.Generation()

	kb.MustAddLink(ids[0], rel, 2, ids[1])
	if !kb.RemoveLink(ids[0], rel, ids[1]) {
		t.Fatal("RemoveLink missed the link just added")
	}
	if err := kb.SetColor(ids[2], kb.ColorFor("other")); err != nil {
		t.Fatal(err)
	}
	if err := kb.SetFn(ids[3], FuncMax); err != nil {
		t.Fatal(err)
	}

	recs, ok := kb.DeltaRange(base, ^uint64(0))
	if !ok {
		t.Fatal("DeltaRange not ok on an enabled, untruncated log")
	}
	wantOps := []DeltaOp{DeltaAddLink, DeltaRemoveLink, DeltaSetColor, DeltaSetFn}
	if len(recs) != len(wantOps) {
		t.Fatalf("%d records, want %d: %+v", len(recs), len(wantOps), recs)
	}
	for i, r := range recs {
		if r.Op != wantOps[i] {
			t.Errorf("record %d op = %s, want %s", i, r.Op, wantOps[i])
		}
		if r.Gen != base+uint64(i)+1 {
			t.Errorf("record %d gen = %d, want %d (strictly ascending)", i, r.Gen, base+uint64(i)+1)
		}
		if !r.Replayable() {
			t.Errorf("record %d (%s) reported non-replayable", i, r.Op)
		}
	}
	if recs[0].Node != ids[0] || recs[0].Link.To != ids[1] || recs[0].Link.Weight != 2 {
		t.Errorf("add-link payload %+v", recs[0])
	}
	if recs[2].Color != kb.ColorFor("other") {
		t.Errorf("set-color payload %+v", recs[2])
	}
	if recs[3].Fn != FuncMax {
		t.Errorf("set-fn payload %+v", recs[3])
	}
}

// TestDeltaLogNoOpMutations: mutations that change nothing must neither
// bump the generation nor append a record, or replicas would churn on
// phantom deltas.
func TestDeltaLogNoOpMutations(t *testing.T) {
	kb, ids := deltaKB(t, 2)
	base := kb.Generation()

	// Same-color SetColor is a no-op.
	if err := kb.SetColor(ids[0], kb.ColorFor("c")); err != nil {
		t.Fatal(err)
	}
	// RemoveLink of a link that does not exist is a no-op.
	if kb.RemoveLink(ids[0], kb.Relation("is-a"), ids[1]) {
		t.Fatal("RemoveLink reported success on a missing link")
	}
	if g := kb.Generation(); g != base {
		t.Errorf("generation moved %d -> %d on no-op mutations", base, g)
	}
	if recs, ok := kb.DeltaRange(base, ^uint64(0)); !ok || len(recs) != 0 {
		t.Errorf("no-op mutations recorded: ok=%v recs=%+v", ok, recs)
	}
}

// TestDeltaRangeWindows pins the (from, to] slicing contract and the
// disabled-log behavior.
func TestDeltaRangeWindows(t *testing.T) {
	kb, ids := deltaKB(t, 2)
	rel := kb.Relation("r")
	base := kb.Generation()
	for i := 0; i < 5; i++ {
		kb.MustAddLink(ids[0], rel, float32(i), ids[1])
	}
	head := kb.Generation() // base+5

	recs, ok := kb.DeltaRange(base+1, base+3)
	if !ok || len(recs) != 2 {
		t.Fatalf("mid window: ok=%v len=%d, want 2 records", ok, len(recs))
	}
	if recs[0].Gen != base+2 || recs[1].Gen != base+3 {
		t.Errorf("mid window gens %d,%d, want %d,%d (from exclusive, to inclusive)",
			recs[0].Gen, recs[1].Gen, base+2, base+3)
	}
	if recs, ok := kb.DeltaRange(head, head); !ok || len(recs) != 0 {
		t.Errorf("empty window: ok=%v len=%d", ok, len(recs))
	}
	if recs, ok := kb.DeltaRange(base, ^uint64(0)); !ok || len(recs) != 5 {
		t.Errorf("full window: ok=%v len=%d, want 5", ok, len(recs))
	}

	// A KB that never enabled its log answers ok=false.
	cold := NewKB()
	if _, ok := cold.DeltaRange(0, ^uint64(0)); ok {
		t.Error("disabled log reported ok=true")
	}
}

// TestDeltaLogTruncation: overflowing the bounded log drops the oldest
// half, raises the floor so stale readers are refused (full-reload
// fallback), and keeps recent windows servable.
func TestDeltaLogTruncation(t *testing.T) {
	kb := NewKB()
	a := kb.MustAddNode("a", kb.ColorFor("c"))
	kb.EnableDeltaLog()
	base := kb.Generation()
	colors := [2]Color{kb.ColorFor("c2"), kb.ColorFor("c")}
	for i := 0; i < DefaultDeltaLogCap+4; i++ {
		if err := kb.SetColor(a, colors[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := kb.DeltaRange(base, ^uint64(0)); ok {
		t.Errorf("%d records through a cap-%d log: the window from before them reported ok=true",
			DefaultDeltaLogCap+4, DefaultDeltaLogCap)
	}
	head := kb.Generation()
	recs, ok := kb.DeltaRange(head-2, head)
	if !ok || len(recs) != 2 {
		t.Errorf("recent window after truncation: ok=%v len=%d, want 2", ok, len(recs))
	}
	if recs, ok := kb.DeltaRange(head-DefaultDeltaLogCap/2, head); !ok || len(recs) != DefaultDeltaLogCap/2 {
		t.Errorf("the newest half after truncation: ok=%v len=%d, want %d", ok, len(recs), DefaultDeltaLogCap/2)
	}

	// Re-enabling never re-arms a fresh log: the floor must not regress.
	kb.EnableDeltaLog()
	if _, ok := kb.DeltaRange(base, ^uint64(0)); ok {
		t.Error("re-enable lowered the truncation floor")
	}
}

// TestDeltaRebuildRecords: node creation and preprocessor reshapes
// change the partition assignment, so they must be logged as
// non-replayable rebuild markers forcing the full-reload fallback.
func TestDeltaRebuildRecords(t *testing.T) {
	kb, ids := deltaKB(t, 2)
	base := kb.Generation()

	kb.MustAddNode("late-arrival", kb.ColorFor("c"))
	recs, ok := kb.DeltaRange(base, ^uint64(0))
	if !ok || len(recs) != 1 {
		t.Fatalf("ok=%v len=%d, want the AddNode rebuild record", ok, len(recs))
	}
	if recs[0].Op != DeltaRebuild || recs[0].Replayable() {
		t.Errorf("AddNode logged %s replayable=%v, want rebuild/non-replayable",
			recs[0].Op, recs[0].Replayable())
	}

	// A preprocessor pass that splits a high-fanout node must mark a
	// rebuild too.
	fat, rest := ids[0], ids[1]
	rel := kb.Relation("r")
	for i := 0; i < RelationSlots+4; i++ {
		kb.MustAddLink(fat, rel, 1, rest)
	}
	pre := kb.Generation()
	kb.Preprocess()
	recs, ok = kb.DeltaRange(pre, ^uint64(0))
	if !ok {
		t.Fatal("DeltaRange(pre, …) not ok")
	}
	found := false
	for _, r := range recs {
		if r.Op == DeltaRebuild {
			found = true
		}
	}
	if !found {
		t.Errorf("preprocessor reshape logged no rebuild record: %+v", recs)
	}
}
