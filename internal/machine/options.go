package machine

import (
	"fmt"

	"snap1/internal/partition"
	"snap1/internal/perfmon"
)

// Option configures a machine under construction. Options apply in the
// order given, starting from DefaultConfig; a whole Config also satisfies
// Option (it replaces the accumulated configuration wholesale), so the
// legacy struct form composes with the functional form:
//
//	m, err := machine.NewFromOptions(machine.PaperConfig(),
//		machine.WithPartition("semantic"))
type Option interface {
	applyOption(*Config)
}

// applyOption makes Config itself an Option: passing a Config replaces
// the accumulated configuration, so NewFromOptions(cfg) ≡ New(cfg).
func (c Config) applyOption(dst *Config) { *dst = c }

type optionFunc func(*Config)

func (f optionFunc) applyOption(c *Config) { f(c) }

// NewFromOptions constructs a machine from DefaultConfig refined by opts.
func NewFromOptions(opts ...Option) (*Machine, error) {
	return New(ApplyOptions(DefaultConfig(), opts...))
}

// ApplyOptions returns base refined by opts in order (for callers that
// assemble a Config to hand to another layer, e.g. the query engine).
func ApplyOptions(base Config, opts ...Option) Config {
	for _, o := range opts {
		o.applyOption(&base)
	}
	return base
}

// WithClusters sets the array size.
func WithClusters(n int) Option {
	return optionFunc(func(c *Config) { c.Clusters = n })
}

// WithMarkerUnits sets the per-cluster marker-unit count and how many of
// the lowest-numbered clusters get one extra MU.
func WithMarkerUnits(perCluster, extraClusters int) Option {
	return optionFunc(func(c *Config) {
		c.MUsPerCluster = perCluster
		c.ExtraMUClusters = extraClusters
	})
}

// WithNodesPerCluster sets each cluster's node-table capacity.
func WithNodesPerCluster(n int) Option {
	return optionFunc(func(c *Config) { c.NodesPerCluster = n })
}

// WithCapacityFor grows the per-cluster node-table capacity so that a
// knowledge base of totalNodes (post-preprocessing) fits the configured
// cluster count. Apply it after any option that changes Clusters.
func WithCapacityFor(totalNodes int) Option {
	return optionFunc(func(c *Config) {
		if c.Clusters <= 0 {
			return
		}
		if need := (totalNodes + c.Clusters - 1) / c.Clusters; need > c.NodesPerCluster {
			c.NodesPerCluster = need
		}
	})
}

// WithPartition selects the node-allocation strategy by name:
// "sequential", "round-robin", or "semantic". An unknown name surfaces as
// an error from New/NewFromOptions.
func WithPartition(name string) Option {
	return optionFunc(func(c *Config) {
		fn, err := partition.ByName(name)
		if err != nil {
			c.err = fmt.Errorf("machine: %w", err)
			return
		}
		c.Partition = fn
	})
}

// WithPlacement toggles the hop-aware placement stage that follows
// partitioning (see Config.Placement).
func WithPlacement(on bool) Option {
	return optionFunc(func(c *Config) { c.Placement = on })
}

// WithDeterministic selects the lockstep engine (on, the default) or the
// concurrent reference engine (off).
func WithDeterministic(on bool) Option {
	return optionFunc(func(c *Config) { c.Deterministic = on })
}

// WithMonitor attaches a performance-collection board.
func WithMonitor(mon *perfmon.Collector) Option {
	return optionFunc(func(c *Config) { c.Monitor = mon })
}
