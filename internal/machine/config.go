// Package machine implements the SNAP-1 array machine: 32 multiprocessing
// clusters (each a processing unit, marker units, and a communication
// unit), the dual-processor central controller, the global broadcast bus,
// the 4-ary hypercube interconnect, and the tiered barrier synchronization
// scheme — executing programs written in the SNAP instruction set over a
// partitioned semantic network.
//
// Two execution engines share identical marker semantics:
//
//   - the lockstep engine (Config.Deterministic, New's default) is the
//     machine that serves: it processes the task causality graph in
//     canonical breadth-first order, giving exactly reproducible virtual
//     times and message counts. The query engine builds nothing else, the
//     benchmark harness and every experiment measure on it, and fault
//     injection is drawn only here;
//   - the concurrent engine (asked for by name: WithDeterministic(false))
//     runs one goroutine per cluster for each propagation phase — polling
//     its mailbox, relaying and counting one message at a time — with
//     real mailbox backpressure and the live termination-detection
//     protocol, modeling the prototype's MIMD propagation and carrying
//     no host-speed machinery. It is the reference the lockstep engine is
//     differentially tested against, and what snapsim -det=false runs;
//     nothing serves on it.
//
// Final marker state is identical between engines; virtual times and
// message counts from the concurrent engine can vary slightly run-to-run
// with goroutine scheduling, exactly as wall-clock measurements on the
// hardware did.
package machine

import (
	"fmt"

	"snap1/internal/isa"
	"snap1/internal/partition"
	"snap1/internal/perfmon"
	"snap1/internal/timing"
)

// Config sizes and parameterizes a machine.
type Config struct {
	// Clusters is the array size. The prototype has 32; the paper's
	// evaluation uses 16.
	Clusters int

	// MUsPerCluster is the marker-unit count in every cluster;
	// ExtraMUClusters of the lowest-numbered clusters get one more
	// (the prototype mixes four- and five-PE clusters).
	MUsPerCluster   int
	ExtraMUClusters int

	// NodesPerCluster is each cluster's node-table capacity (1024 in the
	// prototype, giving the 32K-node knowledge base).
	NodesPerCluster int

	// MailboxCap bounds each cluster's inbound ICN mailbox region (the
	// burst-absorption limit of Fig. 8); a sender refused by a full
	// region services its own mailbox and retries.
	MailboxCap int

	// InstrQueueCap is the PU's circular instruction queue depth — the
	// maximum window of overlapped instructions ("up to 64 instructions
	// can be overlapped").
	InstrQueueCap int

	// MaxDepth bounds propagation path length as a safety net against
	// pathological rules (the paper's measured maxima are 10-15 steps).
	MaxDepth int

	// Cost is the calibrated cycle-cost table.
	Cost timing.CostModel

	// Partition allocates knowledge-base nodes to clusters.
	Partition partition.Func

	// Placement, when set, follows partitioning with the hop-aware
	// placement stage (partition.Place): regions are relabeled onto
	// hypercube addresses so heavy-traffic cluster pairs land few hops
	// apart. A pure performance knob — results are bit-identical with it
	// on or off; only communication charges change.
	Placement bool

	// Seed drives the multiport-memory arbiter's random tie-break.
	Seed int64

	// Deterministic selects the lockstep engine (see the package
	// comment); off selects the concurrent reference engine.
	Deterministic bool

	// Monitor, when non-nil, receives performance-collection events.
	Monitor *perfmon.Collector

	// err records a deferred Option failure (e.g. an unknown partition
	// name); Validate surfaces it.
	err error
}

// DefaultConfig is the full 32-cluster prototype configuration:
// 16 five-PE clusters and 16 four-PE clusters, 144 PEs total.
func DefaultConfig() Config {
	return Config{
		Clusters:        32,
		MUsPerCluster:   2,
		ExtraMUClusters: 16,
		NodesPerCluster: 1024,
		MailboxCap:      64,
		InstrQueueCap:   isa.DefaultWindowDepth,
		MaxDepth:        256,
		Cost:            timing.DefaultCostModel(),
		Partition:       partition.Semantic,
		Seed:            1,
		Deterministic:   true,
	}
}

// PaperConfig is the evaluation configuration of Section IV: a 16-cluster,
// 72-processor array (eight five-PE and eight four-PE clusters).
func PaperConfig() Config {
	cfg := DefaultConfig()
	cfg.Clusters = 16
	cfg.ExtraMUClusters = 8
	return cfg
}

// effExtra clamps ExtraMUClusters to the cluster count so configurations
// scaled down from a larger template stay valid.
func (c Config) effExtra() int {
	if c.ExtraMUClusters > c.Clusters {
		return c.Clusters
	}
	return c.ExtraMUClusters
}

// PEs reports the total processor count: per cluster one PU, one CU, and
// its marker units.
func (c Config) PEs() int {
	return c.Clusters*2 + c.MarkerUnits()
}

// MarkerUnits reports the array's total MU count (the paper's "80 marker
// units" for the full configuration).
func (c Config) MarkerUnits() int {
	return c.Clusters*c.MUsPerCluster + c.effExtra()
}

// musOf reports cluster i's marker-unit count.
func (c Config) musOf(i int) int {
	n := c.MUsPerCluster
	if i < c.ExtraMUClusters {
		n++
	}
	return n
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.err != nil {
		return c.err
	}
	switch {
	case c.Clusters <= 0:
		return fmt.Errorf("machine: Clusters must be positive, got %d", c.Clusters)
	case c.MUsPerCluster <= 0:
		return fmt.Errorf("machine: MUsPerCluster must be positive, got %d", c.MUsPerCluster)
	case c.ExtraMUClusters < 0:
		return fmt.Errorf("machine: ExtraMUClusters must be non-negative, got %d", c.ExtraMUClusters)
	case c.NodesPerCluster <= 0:
		return fmt.Errorf("machine: NodesPerCluster must be positive, got %d", c.NodesPerCluster)
	case c.MailboxCap <= 0:
		return fmt.Errorf("machine: MailboxCap must be positive, got %d", c.MailboxCap)
	case c.InstrQueueCap <= 0:
		return fmt.Errorf("machine: InstrQueueCap must be positive, got %d", c.InstrQueueCap)
	case c.MaxDepth <= 0:
		return fmt.Errorf("machine: MaxDepth must be positive, got %d", c.MaxDepth)
	case c.Partition == nil:
		return fmt.Errorf("machine: Partition function required")
	}
	return nil
}
