package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/nlu"
)

// simTarget is the bare simulator as a researcher drives it: the
// memory-based parser issuing SNAP programs straight to one lockstep
// PaperConfig machine. No engine, no assembler, no HTTP.
type simTarget struct {
	g      *kbgen.Generated
	m      *machine.Machine
	parser *nlu.Parser
	last   []*nlu.ParseResult // most recent result per sentence
}

// newSimTarget generates the network, downloads it and parses every
// sentence once untimed; the whole of it is the workload's set-up.
func newSimTarget(seed int64) (*simTarget, error) {
	g, err := generateKB(seed)
	if err != nil {
		return nil, err
	}
	g.KB.Preprocess()
	cfg := machine.ApplyOptions(machine.PaperConfig(),
		machine.WithDeterministic(true), machine.WithCapacityFor(g.KB.NumNodes()))
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.LoadKB(g.KB); err != nil {
		return nil, err
	}
	t := &simTarget{g: g, m: m, parser: nlu.NewParser(m, g), last: make([]*nlu.ParseResult, len(g.Domain.Sentences))}
	for i, s := range g.Domain.Sentences {
		if o := t.do(0, int64(i)); o.failed > 0 {
			m.Close()
			return nil, fmt.Errorf("%w: on the network of seed %d sentence %s did not parse to %q", errIllPosed, seed, s.ID, s.Expect)
		}
	}
	return t, nil
}

// errIllPosed marks a generated network on which a domain sentence does
// not parse to the winner the generator labelled it with.
var errIllPosed = errors.New("sim-parse")

// On about one seed in 250 (0...1499: 99, 132, 283, 432, 775, 1307) one
// of kbgen's random filler concept sequences out-scores the domain's own
// for a sentence, so the parse "fails" on every pass through no fault of
// the machine. A workload may not fail by the luck of the seed, so
// sim-parse takes the first network of seed, seed+seedStride, ... that is
// well posed. A parser that is really broken is ill posed on every one of
// them and still fails the run.
const (
	seedStride     = 1_000_003
	seedCandidates = 8
)

// wellPosedSeed maps seed to the seed sim-parse generates its network
// from; it is seed itself unless that network is ill posed.
func wellPosedSeed(seed int64) (int64, error) {
	var err error
	for k := int64(0); k < seedCandidates; k++ {
		var t *simTarget
		if t, err = newSimTarget(seed + k*seedStride); err == nil {
			t.m.Close()
			return seed + k*seedStride, nil
		}
		if !errors.Is(err, errIllPosed) {
			return 0, err
		}
	}
	return 0, fmt.Errorf("no well-posed network in %d candidates from seed %d: %w", seedCandidates, seed, err)
}

func (t *simTarget) conns() int    { return 1 }
func (t *simTarget) pid() int      { return os.Getpid() }
func (t *simTarget) period() int64 { return int64(len(t.g.Domain.Sentences)) }

func (t *simTarget) do(_ int, seq int64) outcome {
	i := int(seq % int64(len(t.g.Domain.Sentences)))
	s := t.g.Domain.Sentences[i]
	res, err := t.parser.Parse(s)
	if err != nil || res.Winner != s.Expect {
		return outcome{ops: 1, failed: 1}
	}
	t.last[i] = res
	return outcome{ops: 1, vps: int64(res.MBTime)}
}

// Set-up is repeated at least minSetups times and until setupBudget has
// been spent (at most maxSetups times): a 30 ms set-up is mostly noise,
// and a median of eleven is far steadier than a median of three.
const (
	minSetups   = 3
	maxSetups   = 11
	setupBudget = 2 * time.Second
)

// timeSetup runs setup repeatedly and returns the last product and the
// median duration, each duration calibrated by the probes around it.
// Earlier products are handed to discard. once limits it to one set-up,
// for runs that do not report setup_s.
func timeSetup[T any](p *prober, once bool, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	began := time.Now()
	before := p.calibrate()
	for i := 0; i < maxSetups; i++ {
		if i > 0 {
			discard(last)
		}
		start, host := time.Now(), readHostTicks()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		took, stolen := time.Since(start).Seconds(), readHostTicks().stolenSince(host)
		after := p.calibrate()
		secs = append(secs, took/slowness(before, after, stolen))
		last, before = v, after
		if once || (i+1 >= minSetups && time.Since(began) >= setupBudget) {
			break
		}
	}
	return last, median(secs), nil
}
