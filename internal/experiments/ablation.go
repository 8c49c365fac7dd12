package experiments

import (
	"fmt"
	"strings"

	"snap1/internal/machine"
	"snap1/internal/partition"
	"snap1/internal/speech"
	"snap1/internal/timing"
)

// The paper's Section II describes an "integrated measurement system for
// evaluating marker-propagation algorithms, partitioning functions,
// communication traffic, and synchronization protocols", and motivates
// two design choices the ablations below quantify: the semantically-based
// partitioning option and the 2-3 marker units per cluster ("a good
// balance between PE utilization and communication overhead").

// PartitionRow is one partitioning strategy's cost on the parse workload.
type PartitionRow struct {
	Name      string
	Cut       float64 // fraction of links crossing clusters
	HopCost   float64 // mean hypercube hops per link
	Messages  int64   // inter-cluster marker activations
	Hops      int64   // port-to-port transfers those activations took
	Time      timing.Time
	Sentences int     // sentences in the parsed batch
	Skew      float64 // busiest cluster's MU-busy time over the mean's
	Critical  float64 // critical cluster's MU-busy share of phase time
}

// mappings are the mapping functions the partition experiments compare.
var mappings = []struct {
	name string
	f    partition.Func
}{
	{"sequential", partition.Sequential},
	{"round-robin", partition.RoundRobin},
	{"semantic", partition.Semantic},
}

// measurePartition parses the sentence batch once on a network of about
// `nodes` nodes and an array of `clusters` clusters, mapped by f and, when
// place is set, relabeled by the placement stage.
func measurePartition(name string, f partition.Func, place bool, nodes, clusters int) (PartitionRow, error) {
	cfg := machine.PaperConfig()
	cfg.Partition, cfg.Placement = f, place
	m, g, err := nluSetup(nodes, clusters, cfg)
	if err != nil {
		return PartitionRow{}, err
	}
	assign, err := f(g.KB, clusters, 1024*1024)
	if err != nil {
		return PartitionRow{}, err
	}
	if place {
		assign = partition.Place(g.KB, assign, clusters)
	}
	prof, _, err := parseBatch(newParser(m, g), g, 1)
	if err != nil {
		return PartitionRow{}, fmt.Errorf("%d nodes, %d clusters, %s: %w", nodes, clusters, name, err)
	}
	return PartitionRow{
		Name:      name,
		Cut:       partition.CutRatio(g.KB, assign),
		HopCost:   partition.HopCost(g.KB, assign, clusters),
		Messages:  prof.PropMessages,
		Hops:      prof.PropHops,
		Time:      prof.Elapsed,
		Sentences: len(g.Domain.Sentences),
		Skew:      prof.MUBusySkew(),
		Critical:  prof.CriticalBusyShare(),
	}, nil
}

// PartitionResult compares the partitioning functions.
type PartitionResult struct {
	Rows []PartitionRow
}

// AblationPartition parses the sentence batch under each mapping function,
// and the semantic one followed by placement, on the 16-cluster array.
func AblationPartition() (*PartitionResult, error) {
	out := &PartitionResult{}
	add := func(name string, f partition.Func, place bool) error {
		row, err := measurePartition(name, f, place, 4000, 16)
		out.Rows = append(out.Rows, row)
		return err
	}
	for _, mf := range mappings {
		if err := add(mf.name, mf.f, false); err != nil {
			return nil, err
		}
	}
	if err := add("semantic+place", partition.Semantic, true); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the comparison.
func (r *PartitionResult) String() string {
	header := []string{"Partition", "Link cut", "Hop cost", "ICN messages", "ICN hops", "Parse batch time", "MU-busy skew", "Critical busy"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%.1f%%", row.Cut*100),
			fmt.Sprintf("%.2f", row.HopCost),
			fmt.Sprint(row.Messages),
			fmt.Sprint(row.Hops),
			row.Time.String(),
			fmt.Sprintf("%.2f", row.Skew),
			fmt.Sprintf("%.1f%%", row.Critical*100),
		})
	}
	return "Ablation: partitioning function vs communication traffic (16 clusters)\n" +
		table(header, rows)
}

// DecisionRow is one network and array size's parse time per sentence
// under every mapping function: Time[2*i] is the i'th of the mappings
// (sequential, round-robin, semantic) alone, and Time[2*i+1] the
// same followed by placement.
type DecisionRow struct {
	Nodes, Clusters int
	Time            []timing.Time
}

// DecisionResult is the table the machine's default mapping function is
// chosen by (EXPERIMENTS.md, "Partition decision").
type DecisionResult struct {
	Rows []DecisionRow
}

// PartitionDecision parses the sentence batch under every mapping
// function, with and without placement, on networks of 2 000 to 16 000
// nodes and arrays of 4, 16 and 32 clusters, and reports the mean parse
// time per sentence.
func PartitionDecision() (*DecisionResult, error) {
	out := &DecisionResult{}
	for _, n := range []int{2000, 4000, 8000, 12000, 16000} {
		for _, k := range []int{4, 16, 32} {
			row := DecisionRow{Nodes: n, Clusters: k}
			for _, mf := range mappings {
				for _, place := range []bool{false, true} {
					pr, err := measurePartition(mf.name, mf.f, place, n, k)
					if err != nil {
						return nil, err
					}
					row.Time = append(row.Time, pr.Time/timing.Time(pr.Sentences))
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// String renders the decision table, one column per mapping function
// (+p: with placement), the fastest marked, and round-robin's time
// against semantic's.
func (r *DecisionResult) String() string {
	header := []string{"Nodes", "Clusters"}
	var rr, sem int // columns of round-robin and semantic alone
	for i, mf := range mappings {
		header = append(header, mf.name, mf.name+"+p")
		switch mf.name {
		case "round-robin":
			rr = 2 * i
		case "semantic":
			sem = 2 * i
		}
	}
	header = append(header, "round-robin vs semantic")
	var rows [][]string
	for _, row := range r.Rows {
		best := 0
		for i, t := range row.Time {
			if t < row.Time[best] {
				best = i
			}
		}
		cells := []string{fmt.Sprint(row.Nodes), fmt.Sprint(row.Clusters)}
		for i, t := range row.Time {
			cell := fmt.Sprintf("%.1f", t.Microseconds())
			if i == best {
				cell += "*"
			}
			cells = append(cells, cell)
		}
		cells = append(cells, fmt.Sprintf("%+.1f%%", (float64(row.Time[rr])/float64(row.Time[sem])-1)*100))
		rows = append(rows, cells)
	}
	return "Partition decision: parse time per sentence (µs), seed 42\n" + table(header, rows)
}

// MURow is one marker-unit count's parse cost.
type MURow struct {
	MUsPerCluster int
	PEs           int
	Time          timing.Time
	Speedup       float64 // vs one MU per cluster
}

// MUResult sweeps marker units per cluster.
type MUResult struct {
	Rows []MURow
}

// AblationMUs parses the sentence batch with 1..4 marker units per
// cluster at 16 clusters — the tradeoff behind the prototype's
// four-to-five-PE cluster design.
func AblationMUs() (*MUResult, error) {
	out := &MUResult{}
	var base timing.Time
	for mus := 1; mus <= 4; mus++ {
		cfg := paperConfig()
		cfg.MUsPerCluster = mus
		cfg.ExtraMUClusters = 0
		m, g, err := nluSetup(4000, 16, cfg)
		if err != nil {
			return nil, err
		}
		p := newParser(m, g)
		prof, _, err := parseBatch(p, g, 1)
		if err != nil {
			return nil, err
		}
		if mus == 1 {
			base = prof.Elapsed
		}
		out.Rows = append(out.Rows, MURow{
			MUsPerCluster: mus,
			PEs:           cfg.PEs(),
			Time:          prof.Elapsed,
			Speedup:       float64(base) / float64(prof.Elapsed),
		})
	}
	return out, nil
}

// String renders the sweep.
func (r *MUResult) String() string {
	header := []string{"MUs/cluster", "PEs", "Parse batch time", "Speedup vs 1 MU"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.MUsPerCluster),
			fmt.Sprint(row.PEs),
			row.Time.String(),
			fmt.Sprintf("%.2fx", row.Speedup),
		})
	}
	return "Ablation: marker units per cluster (16 clusters)\n" + table(header, rows)
}

// SpeechRow is one lattice's decode outcome for the PASS-style workload.
type SpeechRow struct {
	Truth      string
	Decoded    string
	Winner     string
	SlotsRight int
	Slots      int
	MeanBeta   float64
	Time       timing.Time
}

// SpeechResult summarizes the speech-understanding workload: the measured
// β-overlap should land in the paper's PASS range (β_min 2.8, β_max 6).
type SpeechResult struct {
	Rows     []SpeechRow
	MeanBeta float64
}

// SpeechStudy decodes noisy lattices for three ground-truth utterances on
// the evaluation configuration.
func SpeechStudy() (*SpeechResult, error) {
	m, g, err := nluSetup(4000, 16, paperConfig())
	if err != nil {
		return nil, err
	}
	dec := speech.NewDecoder(m, g)
	truths := [][]string{
		{"guerrillas", "bombed", "embassy"},
		{"police", "killed", "terrorists"},
		{"terrorists", "attacked", "mayor"},
	}
	out := &SpeechResult{}
	var betaSum float64
	for i, truth := range truths {
		lat, err := speech.Confuse(g, truth, kbSeed+int64(i))
		if err != nil {
			return nil, err
		}
		res, err := dec.Decode(lat)
		if err != nil {
			return nil, err
		}
		right := 0
		for j := range truth {
			if res.Transcript[j] == truth[j] {
				right++
			}
		}
		out.Rows = append(out.Rows, SpeechRow{
			Truth:      strings.Join(truth, " "),
			Decoded:    strings.Join(res.Transcript, " "),
			Winner:     res.Winner,
			SlotsRight: right,
			Slots:      len(truth),
			MeanBeta:   res.MeanBeta,
			Time:       res.Time,
		})
		betaSum += res.MeanBeta
	}
	out.MeanBeta = betaSum / float64(len(truths))
	return out, nil
}

// String renders the study.
func (r *SpeechResult) String() string {
	header := []string{"Truth", "Decoded", "Meaning", "Correct", "β", "Time"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Truth,
			row.Decoded,
			row.Winner,
			fmt.Sprintf("%d/%d", row.SlotsRight, row.Slots),
			fmt.Sprintf("%.1f", row.MeanBeta),
			row.Time.String(),
		})
	}
	return fmt.Sprintf("PASS-style speech understanding (mean β %.1f; paper's PASS: 2.8-6)\n",
		r.MeanBeta) + table(header, rows)
}
