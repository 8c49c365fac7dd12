package machine

import (
	"errors"
	"fmt"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/partition"
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// Incremental replica sync tests: a machine patched forward with
// ApplyDelta must be indistinguishable — bit-identical probe results,
// including lockstep virtual times — from a machine that re-downloaded
// the mutated KB in full. The equivalence rests on both paths preserving
// link order: KB.RemoveLink and Store.RemoveLink are first-match
// order-preserving, and both AddLink paths append.

// deltaTestKB builds a deterministic mid-size network: a few is-a trees
// plus cross links, small enough for a 4-cluster lockstep machine.
func deltaTestKB(t testing.TB) (*semnet.KB, []semnet.NodeID, semnet.RelType) {
	t.Helper()
	kb := semnet.NewKB()
	col := kb.ColorFor("concept")
	rel := kb.Relation("is-a")
	const n = 24
	ids := make([]semnet.NodeID, n)
	for i := range ids {
		ids[i] = kb.MustAddNode(fmt.Sprintf("n%d", i), col)
	}
	for i := 1; i < n; i++ {
		kb.MustAddLink(ids[i], rel, 1, ids[(i-1)/2]) // binary tree toward ids[0]
	}
	for i := 0; i < n; i += 5 {
		kb.MustAddLink(ids[i], kb.Relation("sees"), 2, ids[(i+7)%n])
	}
	return kb, ids, rel
}

func deltaTestMachine(t testing.TB, kb *semnet.KB) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Clusters = 4
	cfg.NodesPerCluster = kb.NumNodes() + 32
	cfg.MaxDepth = 32
	// Round-robin keeps the node→cluster assignment a function of node
	// order alone. The semantic partitioner re-derives placement
	// from the (mutated) topology on a fresh LoadKB, while delta patching
	// deliberately keeps the serving assignment — placement-dependent
	// virtual times would then differ even though collections agree. The
	// engine never mixes the two inside one pool generation, so the
	// bit-identity claim is made where it holds: under a fixed assignment.
	cfg.Partition = partition.RoundRobin
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	return m
}

// deltaProbe is a probe program touching the mutated surface: propagate
// over the is-a tree and collect, so any table divergence shows up in
// the collections or the lockstep virtual time.
func deltaProbe(ids []semnet.NodeID, rel semnet.RelType, start int) *isa.Program {
	p := isa.NewProgram()
	p.SearchNode(ids[start%len(ids)], 1, 0)
	p.Propagate(1, 2, rules.Path(rel), semnet.FuncAdd)
	p.Barrier()
	p.CollectNode(2)
	return p
}

// probeState runs the probe on a cleared machine and renders the full
// observable outcome (virtual time + every collection row) as strings.
func probeState(t testing.TB, m *Machine, ids []semnet.NodeID, rel semnet.RelType, start int) string {
	t.Helper()
	m.ClearMarkers()
	res, err := m.Run(deltaProbe(ids, rel, start))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Time.String()
	for _, c := range res.Collections {
		for _, it := range c.Items {
			out += fmt.Sprintf("|%d:%d=%v", c.Instr, it.Node, it.Value)
		}
	}
	return out
}

// mutateKB applies a deterministic batch of replayable mutations
// directly to the KB: link toggles, color and function rewrites. Nodes
// near the relation-slot cap are skipped, mirroring the write path's
// capacity refusal (a loaded store cannot split subnodes at runtime).
func mutateKB(t testing.TB, kb *semnet.KB, ids []semnet.NodeID, rounds int) {
	t.Helper()
	rel := kb.Relation("delta-probe")
	col := kb.ColorFor("recolored")
	for r := 0; r < rounds; r++ {
		for i := range ids {
			src, dst := ids[i], ids[(i+3)%len(ids)]
			nd, err := kb.Node(src)
			if err != nil {
				t.Fatal(err)
			}
			if r%2 == 0 {
				if len(nd.Out) > semnet.RelationSlots-2 {
					continue
				}
				kb.MustAddLink(src, rel, float32(r+1), dst)
			} else {
				kb.RemoveLink(src, rel, dst)
			}
			if i%7 == 0 {
				if err := kb.SetColor(src, col); err != nil {
					t.Fatal(err)
				}
				if err := kb.SetFn(src, semnet.FuncMax); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestApplyDeltaMatchesReload is the core equivalence: after a mutation
// batch, a delta-patched machine and a freshly re-downloaded machine
// must produce bit-identical probe results from several start nodes.
func TestApplyDeltaMatchesReload(t *testing.T) {
	kb, ids, rel := deltaTestKB(t)
	patched := deltaTestMachine(t, kb)
	defer patched.Close()
	kb.EnableDeltaLog()

	for round := 0; round < 3; round++ {
		from := patched.KBGeneration()
		mutateKB(t, kb, ids, 2)
		to := kb.Generation()
		recs, ok := kb.DeltaRange(from, to)
		if !ok {
			t.Fatalf("round %d: DeltaRange(%d, %d) not ok", round, from, to)
		}
		if len(recs) == 0 {
			t.Fatalf("round %d: mutation batch produced no delta records", round)
		}
		if err := patched.ApplyDelta(recs, to); err != nil {
			t.Fatalf("round %d: ApplyDelta: %v", round, err)
		}
		if g := patched.KBGeneration(); g != to {
			t.Fatalf("round %d: patched generation %d, want %d", round, g, to)
		}

		reloaded := deltaTestMachine(t, kb)
		for start := 0; start < len(ids); start += 5 {
			got := probeState(t, patched, ids, rel, start)
			want := probeState(t, reloaded, ids, rel, start)
			if got != want {
				t.Errorf("round %d start %d: patched diverges from reloaded:\n got  %s\n want %s",
					round, start, got, want)
			}
		}
		reloaded.Close()
	}
}

// TestApplyDeltaErrors pins the failure contract: bad inputs error out
// without advancing the machine's generation, so the caller's full
// re-download fallback starts from an honest state.
func TestApplyDeltaErrors(t *testing.T) {
	kb, ids, _ := deltaTestKB(t)
	m := deltaTestMachine(t, kb)
	defer m.Close()
	kb.EnableDeltaLog()
	from := m.KBGeneration()

	// No KB loaded at all.
	empty, err := New(referenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if err := empty.ApplyDelta(nil, 1); !errors.Is(err, ErrNoKB) {
		t.Errorf("unloaded machine: %v, want ErrNoKB", err)
	}

	// A non-replayable rebuild record must be refused.
	rebuild := []semnet.DeltaRec{{Gen: from + 1, Op: semnet.DeltaRebuild}}
	if err := m.ApplyDelta(rebuild, from+1); !errors.Is(err, semnet.ErrDeltaUnsupported) {
		t.Errorf("rebuild record: %v, want ErrDeltaUnsupported", err)
	}
	if m.KBGeneration() != from {
		t.Error("failed ApplyDelta advanced the generation")
	}

	// Records outside (from, to] must be refused (stale or future).
	stale := []semnet.DeltaRec{{Gen: from, Op: semnet.DeltaAddLink, Node: ids[0]}}
	if err := m.ApplyDelta(stale, from+1); err == nil {
		t.Error("stale record (gen == from) applied")
	}
	future := []semnet.DeltaRec{{Gen: from + 2, Op: semnet.DeltaAddLink, Node: ids[0]}}
	if err := m.ApplyDelta(future, from+1); err == nil {
		t.Error("future record (gen > to) applied")
	}

	// A node outside the loaded assignment cannot be routed.
	ghost := []semnet.DeltaRec{{Gen: from + 1, Op: semnet.DeltaAddLink, Node: semnet.NodeID(1 << 20)}}
	if err := m.ApplyDelta(ghost, from+1); err == nil {
		t.Error("unassigned node routed")
	}
	if m.KBGeneration() != from {
		t.Error("failed ApplyDelta advanced the generation")
	}
}

// FuzzDeltaApply is the differential fuzz for incremental sync: an
// arbitrary byte string is decoded into a mutation script over a fixed
// network, applied once through the delta-replay path and once through a
// full re-download, and the two machines must agree bit-for-bit on probe
// results (lockstep virtual time included).
func FuzzDeltaApply(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x13, 0x57, 0x9b, 0xdf})
	f.Add([]byte("add-remove-add"))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0x42, 0x42})
	f.Fuzz(func(t *testing.T, script []byte) {
		kb, ids, rel := deltaTestKB(t)
		patched := deltaTestMachine(t, kb)
		defer patched.Close()
		kb.EnableDeltaLog()
		from := patched.KBGeneration()

		// Decode: each byte is one mutation. Top two bits pick the op,
		// the rest address nodes. AddLink honors the relation-slot guard
		// the online write path enforces (a loaded store cannot split
		// subnodes at runtime), so every logged record stays replayable.
		fuzzRel := kb.Relation("fuzz")
		for k, b := range script {
			src := ids[int(b&0x1f)%len(ids)]
			dst := ids[(int(b&0x1f)+k)%len(ids)]
			switch b >> 6 {
			case 0, 1:
				nd, err := kb.Node(src)
				if err != nil {
					t.Fatal(err)
				}
				if len(nd.Out) > semnet.RelationSlots-2 {
					continue
				}
				kb.MustAddLink(src, fuzzRel, float32(b%7), dst)
			case 2:
				kb.RemoveLink(src, fuzzRel, dst)
			default:
				if err := kb.SetColor(src, kb.ColorFor(fmt.Sprintf("c%d", b%3))); err != nil {
					t.Fatal(err)
				}
			}
		}

		to := kb.Generation()
		recs, ok := kb.DeltaRange(from, to)
		if !ok {
			t.Fatalf("DeltaRange(%d, %d) not ok", from, to)
		}
		for i := range recs {
			if !recs[i].Replayable() {
				t.Fatalf("script produced non-replayable record %+v", recs[i])
			}
		}
		if err := patched.ApplyDelta(recs, to); err != nil {
			t.Fatalf("ApplyDelta(%d records): %v", len(recs), err)
		}

		reloaded := deltaTestMachine(t, kb)
		defer reloaded.Close()
		for start := 0; start < len(ids); start += 7 {
			got := probeState(t, patched, ids, rel, start)
			want := probeState(t, reloaded, ids, rel, start)
			if got != want {
				t.Fatalf("start %d: patched diverges from reloaded after %d records:\n got  %s\n want %s",
					start, len(recs), got, want)
			}
		}
	})
}
