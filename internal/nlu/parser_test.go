package nlu

import (
	"testing"

	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/timing"
)

func newTestParser(t *testing.T, nodes int, det bool) (*Parser, *kbgen.Generated) {
	t.Helper()
	g, err := kbgen.Generate(kbgen.Params{Nodes: nodes, Seed: 7, WithDomain: true})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	cfg := machine.PaperConfig()
	cfg.Deterministic = det
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.LoadKB(g.KB); err != nil {
		t.Fatalf("LoadKB: %v", err)
	}
	return NewParser(m, g), g
}

func TestParseEvaluationSentences(t *testing.T) {
	for _, det := range []bool{true, false} {
		p, g := newTestParser(t, 2000, det)
		for _, s := range g.Domain.Sentences {
			res, err := p.Parse(s)
			if err != nil {
				t.Fatalf("det=%v %s: %v", det, s.ID, err)
			}
			if res.Winner != s.Expect {
				t.Errorf("det=%v %s %q: winner %q (score %v), want %q; cases %v",
					det, s.ID, s.Text, res.Winner, res.Score, s.Expect, res.Cases)
				continue
			}
			for _, aux := range s.Aux {
				found := false
				for _, c := range res.Cases {
					if c == aux {
						found = true
					}
				}
				if !found {
					t.Errorf("det=%v %s: missing auxiliary case %q (got %v)", det, s.ID, aux, res.Cases)
				}
			}
			if res.PPTime <= 0 || res.MBTime <= 0 {
				t.Errorf("det=%v %s: nonpositive times PP=%v MB=%v", det, s.ID, res.PPTime, res.MBTime)
			}
		}
	}
}

func TestChunkPhrases(t *testing.T) {
	_, g := newTestParser(t, 512, true)
	s := g.Domain.Sentences[0] // "Terrorists attacked the mayor's home in Bogota yesterday."
	phrases, ppTime, err := Chunk(g, s.Words)
	if err != nil {
		t.Fatal(err)
	}
	if ppTime <= 0 {
		t.Error("phrasal parse consumed no time")
	}
	if len(phrases) < 3 {
		t.Fatalf("expected at least NP/VP/NP, got %d phrases: %+v", len(phrases), phrases)
	}
	if phrases[0].Type != PhraseNP {
		t.Errorf("first phrase %v, want NP", phrases[0].Type)
	}
	if phrases[1].Type != PhraseVP {
		t.Errorf("second phrase %v, want VP", phrases[1].Type)
	}
	content := ContentWords(phrases)
	// "the" must be absorbed: 8 tokens, 7 content words.
	if len(content) != 7 {
		t.Errorf("content words = %d, want 7", len(content))
	}
}

// The parser's simulated time on the benchmark's own network is the fence
// that a host-speed change left the machine alone: sim-parse reports it as
// vtime_us_per_op (mean 29 306.755 µs), and this pins it per sentence
// inside go test, on the machine sim-parse builds (benchmark/simparse.go).
func TestParserSimulatedTimePinned(t *testing.T) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: 12000, Seed: 42, WithDomain: true})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	g.KB.Preprocess()
	m, err := machine.New(machine.ApplyOptions(machine.PaperConfig(),
		machine.WithDeterministic(true), machine.WithCapacityFor(g.KB.NumNodes())))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Close()
	if err := m.LoadKB(g.KB); err != nil {
		t.Fatalf("LoadKB: %v", err)
	}
	p := NewParser(m, g)

	wantPS := []timing.Time{33_469_740_000, 26_045_300_000, 24_560_250_000, 33_151_730_000}
	const wantSum timing.Time = 117_227_020_000
	if len(g.Domain.Sentences) != len(wantPS) {
		t.Fatalf("%d domain sentences, pinned %d", len(g.Domain.Sentences), len(wantPS))
	}
	for pass := 1; pass <= 2; pass++ {
		var sum timing.Time
		for i, s := range g.Domain.Sentences {
			res, err := p.Parse(s)
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, s.ID, err)
			}
			if res.Winner != s.Expect {
				t.Errorf("pass %d %s: winner %q, want %q", pass, s.ID, res.Winner, s.Expect)
			}
			if res.MBTime != wantPS[i] {
				t.Errorf("pass %d %s: MBTime %d ps, pinned %d ps", pass, s.ID, int64(res.MBTime), int64(wantPS[i]))
			}
			sum += res.MBTime
		}
		if sum != wantSum {
			t.Errorf("pass %d: MBTime sum %d ps, pinned %d ps", pass, int64(sum), int64(wantSum))
		}
	}
}
