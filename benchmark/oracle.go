package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"snap1/internal/engine"
	"snap1/internal/isa"
	"snap1/internal/kbfile"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/partition"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// replicaOptions is the machine configuration cmd/snapd gives every
// replica when started with default flags. The traced run and the
// oracle use it so their simulated times are comparable with snapd's;
// the configuration probe of the traced run fails the run if the copy
// drifts from cmd/snapd.
func replicaOptions() []machine.Option {
	return []machine.Option{
		machine.WithClusters(16),
		machine.WithMarkerUnits(2, 0),
		machine.WithPartition("semantic"),
		machine.WithPlacement(false),
		machine.WithDeterministic(true),
	}
}

// newReplica builds a stand-alone machine configured like a snapd
// replica and downloads kb into it.
func newReplica(kb *semnet.KB, opts ...machine.Option) (*machine.Machine, error) {
	kb.Preprocess()
	base := machine.PaperConfig()
	all := append(replicaOptions(), machine.WithCapacityFor(kb.NumNodes()))
	m, err := machine.New(machine.ApplyOptions(base, append(all, opts...)...))
	if err != nil {
		return nil, err
	}
	if err := m.LoadKB(kb); err != nil {
		return nil, err
	}
	return m, nil
}

// canonicalPicos is the simulated time of examples/data/ancestors.snap
// on animals.kb under the default semantic partition: the repository's
// fence that the simulated machine has not changed.
const canonicalPicos = 250_852_500

// checkCanonical runs the shipped sample and compares its simulated
// time with the canonical 250.85 µs.
func checkCanonical(root string) error {
	f, err := os.Open(filepath.Join(root, "examples", "data", "animals.kb"))
	if err != nil {
		return err
	}
	defer f.Close()
	kb, err := kbfile.Parse(f)
	if err != nil {
		return err
	}
	kb.Preprocess()
	src, err := os.ReadFile(filepath.Join(root, "examples", "data", "ancestors.snap"))
	if err != nil {
		return err
	}
	prog, err := isa.NewAssembler(kb).Assemble(strings.NewReader(string(src)))
	if err != nil {
		return err
	}
	m, err := newReplica(kb)
	if err != nil {
		return err
	}
	defer m.Close()
	res, err := m.Run(prog)
	if err != nil {
		return err
	}
	if res.Time != timing.Time(canonicalPicos) {
		return fmt.Errorf("canonical probe: ancestors.snap on animals.kb took %d ps, want %d (250.85µs)", int64(res.Time), int64(canonicalPicos))
	}
	return nil
}

// row is one expected result row with names resolved, the form the HTTP
// surface reports.
type row struct {
	node   string
	value  float32
	origin string
}

// oracle answers pool programs on a fresh lockstep machine, solo and
// unoptimized: the simplest path through the simulator, against which
// whatever snapd did (optimized, fused, cached, delta-synced) must
// agree row for row.
type oracle struct {
	g     *kbgen.Generated
	m     *machine.Machine
	asm   *isa.Assembler
	built buildTimes
}

// buildTimes is how long each set-up layer took while the oracle was
// brought up, and the quality of the partition it got: the per-layer
// view of what setup_s pays for inside snapd.
type buildTimes struct {
	generateMS, preprocessMS, assignMS, loadKBMS, cloneMS float64
	cutRatio, hopCost                                     float64
}

func millisSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func newOracle(seed int64) (*oracle, error) {
	o := &oracle{}
	start := time.Now()
	g, err := generateKB(seed)
	if err != nil {
		return nil, err
	}
	o.built.generateMS = millisSince(start)

	start = time.Now()
	g.KB.Preprocess()
	o.built.preprocessMS = millisSince(start)

	// LoadKB partitions again; this call exists to time the partition
	// function alone and to score its assignment.
	const clusters = 16
	start = time.Now()
	assign, err := partition.Semantic(g.KB, clusters, (g.KB.NumNodes()+clusters-1)/clusters)
	if err != nil {
		return nil, err
	}
	o.built.assignMS = millisSince(start)
	o.built.cutRatio = partition.CutRatio(g.KB, assign)
	o.built.hopCost = partition.HopCost(g.KB, assign, clusters)

	start = time.Now()
	m, err := newReplica(g.KB)
	if err != nil {
		return nil, err
	}
	o.built.loadKBMS = millisSince(start)

	start = time.Now()
	clone, err := m.Clone()
	if err != nil {
		return nil, err
	}
	o.built.cloneMS = millisSince(start)
	clone.Close()

	o.g, o.m, o.asm = g, m, isa.NewAssembler(g.KB)
	return o, nil
}

// answer returns the rows of text's collections, in order.
func (o *oracle) answer(text string) ([][]row, error) {
	prog, err := o.asm.Assemble(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	o.m.ClearMarkers()
	res, err := o.m.RunContext(context.Background(), prog)
	if err != nil {
		return nil, err
	}
	kb := o.g.KB
	out := make([][]row, len(res.Collections))
	for i, c := range res.Collections {
		out[i] = make([]row, len(c.Items))
		for j, it := range c.Items {
			out[i][j] = row{
				node:   kb.Name(kb.Canonical(it.Node)),
				value:  it.Value,
				origin: kb.Name(kb.Canonical(it.Origin)),
			}
		}
	}
	return out, nil
}

// answers computes the expected rows of every entry.
func (o *oracle) answers(es []entry) ([][][]row, error) {
	out := make([][][]row, len(es))
	for i := range es {
		a, err := o.answer(es[i].text)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s query %d: %w", es[i].q.tmpl, i, err)
		}
		out[i] = a
	}
	return out, nil
}

// matches reports whether a served response carries exactly the
// expected rows.
func matches(resp *engine.QueryResponse, want [][]row) bool {
	if len(resp.Collections) != len(want) {
		return false
	}
	for i, c := range resp.Collections {
		if len(c.Items) != len(want[i]) {
			return false
		}
		for j, it := range c.Items {
			w := want[i][j]
			if it.Node != w.node || it.Value != w.value || it.Origin != w.origin {
				return false
			}
		}
	}
	return true
}
