package speech

import (
	"testing"

	"snap1/internal/kbgen"
	"snap1/internal/machine"
)

func newDecoder(t *testing.T, nodes int) (*Decoder, *kbgen.Generated) {
	t.Helper()
	g, err := kbgen.Generate(kbgen.Params{Nodes: nodes, Seed: 42, WithDomain: true})
	if err != nil {
		t.Fatal(err)
	}
	g.KB.Preprocess()
	cfg := machine.PaperConfig()
	if need := (g.KB.NumNodes() + cfg.Clusters - 1) / cfg.Clusters; need > cfg.NodesPerCluster {
		cfg.NodesPerCluster = need
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(g.KB); err != nil {
		t.Fatal(err)
	}
	return NewDecoder(m, g), g
}

// The headline behaviour: an acoustically preferred wrong hypothesis is
// overturned by semantic constraints.
func TestSemanticsOverturnAcoustics(t *testing.T) {
	d, _ := newDecoder(t, 2000)
	lat := Lattice{
		{{Word: "guerrillas", Acoustic: 0.4}},
		{{Word: "mayor", Acoustic: 0.1}, {Word: "bombed", Acoustic: 0.6}}, // acoustics prefer "mayor"
		{{Word: "embassy", Acoustic: 0.3}, {Word: "office", Acoustic: 0.45}},
	}
	res, err := d.Decode(lat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "bombing-event" {
		t.Fatalf("winner = %q, want bombing-event", res.Winner)
	}
	want := []string{"guerrillas", "bombed", "embassy"}
	for i, w := range want {
		if res.Transcript[i] != w {
			t.Fatalf("transcript = %v, want %v", res.Transcript, want)
		}
	}
	if res.Time <= 0 || res.Instructions == 0 {
		t.Error("missing measurements")
	}
}

// With no semantic help, the decoder must fall back to acoustics.
func TestAcousticFallback(t *testing.T) {
	d, _ := newDecoder(t, 1000)
	lat := Lattice{
		{{Word: "the", Acoustic: 0.5}, {Word: "a", Acoustic: 0.2}},
		{{Word: "of", Acoustic: 0.3}, {Word: "in", Acoustic: 0.6}},
	}
	res, err := d.Decode(lat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "" {
		t.Fatalf("function words must not complete a sequence, got %q", res.Winner)
	}
	want := []string{"a", "of"}
	for i, w := range want {
		if res.Transcript[i] != w {
			t.Fatalf("fallback transcript = %v, want %v", res.Transcript, want)
		}
	}
}

// Competing hypotheses must overlap in the issue window: the decode's
// mean β must land in the multi-statement range the paper measured for
// PASS (β_min 2.8, β_max 6 — ours is bounded by the window drain points).
func TestHypothesesOverlap(t *testing.T) {
	d, _ := newDecoder(t, 2000)
	lat := Lattice{
		{{Word: "guerrillas", Acoustic: 0.4}, {Word: "police", Acoustic: 0.5}, {Word: "terrorists", Acoustic: 0.6}},
		{{Word: "bombed", Acoustic: 0.4}, {Word: "attacked", Acoustic: 0.5}, {Word: "killed", Acoustic: 0.6}},
		{{Word: "embassy", Acoustic: 0.4}, {Word: "home", Acoustic: 0.5}, {Word: "office", Acoustic: 0.6}},
	}
	res, err := d.Decode(lat)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanBeta < 2 {
		t.Errorf("mean β = %.2f, hypothesis spreads did not overlap", res.MeanBeta)
	}
	if res.Winner == "" {
		t.Error("a fully sensible lattice must complete a sequence")
	}
}

func TestDecodeErrors(t *testing.T) {
	d, _ := newDecoder(t, 1000)
	if _, err := d.Decode(nil); err == nil {
		t.Error("empty lattice")
	}
	if _, err := d.Decode(Lattice{{}}); err == nil {
		t.Error("empty slot")
	}
	if _, err := d.Decode(Lattice{{{Word: "zxqj", Acoustic: 1}}}); err == nil {
		t.Error("unknown word")
	}
	big := make(Lattice, MaxSlots+1)
	for i := range big {
		big[i] = Slot{{Word: "the", Acoustic: 1}}
	}
	if _, err := d.Decode(big); err == nil {
		t.Error("too many slots")
	}
	wide := Lattice{make(Slot, MaxAlternatives+1)}
	for j := range wide[0] {
		wide[0][j] = Alternative{Word: "the", Acoustic: 1}
	}
	if _, err := d.Decode(wide); err == nil {
		t.Error("too many alternatives")
	}
}

func TestConfuseLattice(t *testing.T) {
	d, g := newDecoder(t, 2000)
	lat, err := Confuse(g, []string{"terrorists", "attacked", "embassy"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 3 {
		t.Fatalf("%d slots", len(lat))
	}
	for i, slot := range lat {
		if slot[0].Word != []string{"terrorists", "attacked", "embassy"}[i] {
			t.Fatalf("slot %d truth missing: %+v", i, slot)
		}
		if len(slot) < 2 {
			t.Errorf("slot %d has no confusions", i)
		}
	}
	if _, err := Confuse(g, []string{"zxqj"}, 1); err == nil {
		t.Error("unknown truth word")
	}
	if _, err := Confuse(g, make([]string, MaxSlots+1), 1); err == nil {
		t.Error("too many words")
	}
	// The decoder must handle generated lattices end to end.
	res, err := d.Decode(lat)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transcript) != 3 {
		t.Fatal("transcript length")
	}
}
