// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section IV) on the simulated SNAP-1: Table IV and
// Figs. 6, 8, 15, 16, 17, 18, 19, 20, and 21. Each experiment returns
// structured rows plus a text rendering; cmd/figures and the repository's
// benchmarks are thin wrappers over these functions.
//
// All experiments run the deterministic lockstep engine (the machine's
// default) so regenerated numbers are exactly reproducible.
package experiments

import (
	"fmt"
	"strings"

	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/nlu"
	"snap1/internal/semnet"
	"snap1/internal/trace"
)

// kbSeed keeps every experiment's knowledge bases reproducible.
const kbSeed = 42

// nluSetup builds a linguistic KB of about `nodes` nodes with the
// newswire domain embedded, and a machine with the given cluster count
// sized to hold it.
func nluSetup(nodes, clusters int, base machine.Config) (*machine.Machine, *kbgen.Generated, error) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: nodes, Seed: kbSeed, WithDomain: true})
	if err != nil {
		return nil, nil, err
	}
	base.Clusters = clusters
	m, err := loadMachine(base, g.KB)
	if err != nil {
		return nil, nil, err
	}
	return m, g, nil
}

// loadMachine preprocesses kb, grows cfg's per-cluster capacity until the
// network fits its cluster count, and returns a machine with it loaded.
func loadMachine(cfg machine.Config, kb *semnet.KB) (*machine.Machine, error) {
	kb.Preprocess()
	m, err := machine.New(machine.ApplyOptions(cfg, machine.WithCapacityFor(kb.NumNodes())))
	if err != nil {
		return nil, err
	}
	if err := m.LoadKB(kb); err != nil {
		return nil, err
	}
	return m, nil
}

// newParser binds the memory-based parser to a loaded machine.
func newParser(m *machine.Machine, g *kbgen.Generated) *nlu.Parser {
	return nlu.NewParser(m, g)
}

// parseBatch parses every evaluation sentence `repeat` times, merging
// profiles, and returns the merged profile and per-sentence results from
// the final pass.
func parseBatch(p *nlu.Parser, g *kbgen.Generated, repeat int) (*trace.Profile, []*nlu.ParseResult, error) {
	prof := &trace.Profile{}
	var last []*nlu.ParseResult
	for r := 0; r < repeat; r++ {
		last = last[:0]
		for _, s := range g.Domain.Sentences {
			res, err := p.Parse(s)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", s.ID, err)
			}
			if res.Winner != s.Expect {
				return nil, nil, fmt.Errorf("%s: parsed %q, want %q", s.ID, res.Winner, s.Expect)
			}
			prof.Merge(res.Profile)
			last = append(last, res)
		}
	}
	return prof, last, nil
}

// table renders aligned columns: header row then data rows.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
