// Package snap1 is a software reconstruction of SNAP-1, the Semantic
// Network Array Processor prototype (DeMara & Moldovan, 1991): a parallel
// architecture for knowledge representation and reasoning with the
// marker-propagation paradigm.
//
// The package is a facade over the internal subsystems:
//
//   - build a knowledge base with NewKB (internal/semnet),
//   - write a marker-propagation program with NewProgram (internal/isa),
//   - construct a machine with New and functional options — or a whole
//     Config, which is itself an Option (internal/machine),
//   - LoadKB, Run or RunContext, and inspect the Result and its
//     instrumentation Profile,
//   - or serve many concurrent queries from a replica pool with
//     NewEngine and Engine.Submit (internal/engine). An engine result
//     carries the collections, virtual time and KB generation, but no
//     Profile: Machine.Run is the door for a run's instrumentation.
//
// An engine's resilience runs on fixed values (docs/RESILIENCE.md): three
// per-attempt timeouts in a row quarantine a replica, a probe every
// 100 ms restores it after two passes, and a retry backs off from 2 ms to
// at most 100 ms. WithQueryTimeout and WithRetryPolicy's MaxAttempts are
// the settings.
//
// A minimal session:
//
//	kb := snap1.NewKB()
//	animal := kb.MustAddNode("animal", kb.ColorFor("class"))
//	dog := kb.MustAddNode("dog", kb.ColorFor("class"))
//	kb.MustAddLink(dog, kb.Relation("is-a"), 1, animal)
//
//	m, _ := snap1.New(snap1.WithClusters(16), snap1.WithPartition("semantic"))
//	_ = m.LoadKB(kb)
//
//	p := snap1.NewProgram()
//	p.SearchNode(dog, 1, 0)
//	p.Propagate(1, 2, snap1.PathRule(kb.Relation("is-a")), snap1.FuncAdd)
//	p.CollectNode(2)
//	res, _ := m.Run(p)
//	fmt.Println(res.Names(0)) // [animal]
//
// A concurrent serving session over the same knowledge base:
//
//	eng, _ := snap1.NewEngine(kb, snap1.WithReplicas(8))
//	defer eng.Close()
//	res, _ = eng.Submit(ctx, p)
package snap1

import (
	"snap1/internal/engine"
	"snap1/internal/fault"
	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// Knowledge-base types.
type (
	// KB is the logical semantic network built on the host.
	KB = semnet.KB
	// NodeID identifies a semantic network node.
	NodeID = semnet.NodeID
	// Color is a node's concept-class tag (256 available).
	Color = semnet.Color
	// RelType is a relation (link) type (64K available).
	RelType = semnet.RelType
	// MarkerID names one of the 128 marker registers per node.
	MarkerID = semnet.MarkerID
	// FuncCode is the per-step marker arithmetic/logic operation.
	FuncCode = semnet.FuncCode
	// Link is one outgoing relation-table entry.
	Link = semnet.Link
)

// Machine types.
type (
	// Machine is a configured SNAP-1 array instance.
	Machine = machine.Machine
	// Config sizes a machine (clusters, marker units, capacities, costs).
	Config = machine.Config
	// Result is one program run's outcome.
	Result = machine.Result
	// Collection is one retrieval instruction's rows.
	Collection = machine.Collection
	// Item is one retrieved row.
	Item = machine.Item
)

// Program types.
type (
	// Program is a stream of SNAP instructions plus its rule table.
	Program = isa.Program
	// Instruction is a single SNAP instruction.
	Instruction = isa.Instruction
	// Opcode names one of the twenty SNAP instructions.
	Opcode = isa.Opcode
	// Condition is the NOT-MARKER comparison.
	Condition = isa.Condition
	// RuleSpec names a propagation rule to be compiled.
	RuleSpec = rules.Spec
	// Time is simulated virtual time.
	Time = timing.Time
)

// Engine types.
type (
	// Engine is a concurrent query-serving layer: a pool of machine
	// replicas sharing one knowledge base, each query running on the
	// idle replica released last, one query at a time. Construct with NewEngine; serve
	// with Engine.Submit / Engine.SubmitSource; inspect with
	// Engine.Stats.
	Engine = engine.Engine
	// EngineStats is a snapshot of an engine's serving counters.
	EngineStats = engine.Stats
	// EngineOption configures NewEngine.
	EngineOption = engine.Option
	// RetryPolicy bounds re-execution of retryable query failures
	// (injected faults, per-attempt timeouts) by an attempt count.
	RetryPolicy = engine.RetryPolicy
	// EngineHealth is the engine's per-replica quarantine report.
	EngineHealth = engine.HealthReport
	// FaultPlan is a declarative, seeded fault-injection schedule for
	// the simulated hardware (see internal/fault and docs/RESILIENCE.md).
	FaultPlan = fault.Plan
	// FaultRule is one site's injection schedule within a FaultPlan.
	FaultRule = fault.Rule
)

// NewKB returns an empty knowledge base.
func NewKB() *KB { return semnet.NewKB() }

// NewProgram returns an empty SNAP program.
func NewProgram() *Program { return isa.NewProgram() }

// Assembler parses textual SNAP assembly against a knowledge base.
type Assembler = isa.Assembler

// NewAssembler returns an assembler resolving names against kb.
func NewAssembler(kb *KB) *Assembler { return isa.NewAssembler(kb) }

// Option configures a machine under construction (see WithClusters,
// WithPartition, ...). A whole Config is itself an Option, so the
// original struct form New(PaperConfig()) keeps working.
type Option = machine.Option

// New constructs a machine from DefaultConfig refined by opts, applied
// in order:
//
//	m, err := snap1.New(snap1.WithClusters(16), snap1.WithPartition("semantic"))
//	m, err := snap1.New(snap1.PaperConfig())            // struct form
//	m, err := snap1.New(cfg, snap1.WithCapacityFor(kb.NumNodes()))
func New(opts ...Option) (*Machine, error) { return machine.NewFromOptions(opts...) }

// NewEngine builds a concurrent query engine over kb: the knowledge base
// is preprocessed, partitioned, and downloaded once, then cloned to every
// pool replica. kb must not be mutated afterwards.
func NewEngine(kb *KB, opts ...EngineOption) (*Engine, error) {
	return engine.New(kb, opts...)
}

// DefaultConfig is the full 32-cluster, 144-PE prototype configuration.
func DefaultConfig() Config { return machine.DefaultConfig() }

// PaperConfig is the 16-cluster, 72-PE evaluation configuration.
func PaperConfig() Config { return machine.PaperConfig() }

// Machine construction options (see internal/machine for the full set).
var (
	// WithClusters sets the array size.
	WithClusters = machine.WithClusters
	// WithMarkerUnits sets per-cluster MU count and the extra-MU cluster count.
	WithMarkerUnits = machine.WithMarkerUnits
	// WithNodesPerCluster sets each cluster's node-table capacity.
	WithNodesPerCluster = machine.WithNodesPerCluster
	// WithCapacityFor grows capacity to fit a knowledge base of N nodes.
	WithCapacityFor = machine.WithCapacityFor
	// WithPartition selects node allocation by name: "sequential",
	// "round-robin", "semantic", or "refined".
	WithPartition = machine.WithPartition
	// WithDeterministic(false) asks for the goroutine-per-cluster
	// reference engine in place of a Machine's default, the lockstep
	// engine (exactly reproducible virtual times). An Engine's replicas
	// are lockstep regardless.
	WithDeterministic = machine.WithDeterministic
	// WithMonitor attaches a performance-collection board.
	WithMonitor = machine.WithMonitor
)

// Engine construction options.
var (
	// WithReplicas sets the engine's machine-pool size (default one
	// replica per core, runtime.GOMAXPROCS(0)).
	WithReplicas = engine.WithReplicas
	// WithWrites enables the online write path: Engine.SubmitWrite
	// commits topology-mutating programs on one writer machine, one at a
	// time, and publishes epoch-versioned KB snapshots; a serving replica
	// behind the published one adopts it before taking its next request.
	WithWrites = engine.WithWrites
	// WithQueueCap bounds the callers waiting for a replica.
	WithQueueCap = engine.WithQueueCap
	// WithCacheCap bounds the engine's compile cache.
	WithCacheCap = engine.WithCacheCap
	// WithResultCache bounds the engine's query result cache; n <= 0
	// disables result caching.
	WithResultCache = engine.WithResultCache
	// WithMaxInFlight caps admitted-but-unfinished queries; beyond it
	// submissions fail fast with ErrEngineOverloaded.
	WithMaxInFlight = engine.WithMaxInFlight
	// WithMachineOptions refines the engine's replica configuration.
	WithMachineOptions = engine.WithMachineOptions
	// WithEngineMonitor attaches a performance-collection board to the engine.
	WithEngineMonitor = engine.WithMonitor
	// WithQueryTimeout bounds each execution attempt of a query.
	WithQueryTimeout = engine.WithQueryTimeout
	// WithRetryPolicy bounds automatic re-execution of retryable
	// failures (injected faults, per-attempt timeouts).
	WithRetryPolicy = engine.WithRetryPolicy
	// WithFaultPlan arms deterministic, seeded fault injection in every
	// pool replica's simulated hardware.
	WithFaultPlan = engine.WithFaultPlan
	// LoadFaultPlan reads and validates a JSON fault plan from a file.
	LoadFaultPlan = fault.Load
)

// Marker function codes.
const (
	FuncNop = semnet.FuncNop
	FuncAdd = semnet.FuncAdd
	FuncMin = semnet.FuncMin
	FuncMax = semnet.FuncMax
	FuncMul = semnet.FuncMul
	FuncDec = semnet.FuncDec
)

// NOT-MARKER conditions.
const (
	CondNone = isa.CondNone
	CondLT   = isa.CondLT
	CondLE   = isa.CondLE
	CondGT   = isa.CondGT
	CondGE   = isa.CondGE
	CondEQ   = isa.CondEQ
	CondNE   = isa.CondNE
)

// Binary returns the i'th binary (set-membership) marker.
func Binary(i int) MarkerID { return semnet.Binary(i) }

// StepRule follows a single link of type r1.
func StepRule(r1 RelType) RuleSpec { return rules.Step(r1) }

// PathRule follows chains of r1 links.
func PathRule(r1 RelType) RuleSpec { return rules.Path(r1) }

// SpreadRule follows r1 chains until an r2 link is met, then r2 chains.
func SpreadRule(r1, r2 RelType) RuleSpec { return rules.Spread(r1, r2) }

// SeqRule follows exactly one r1 link then one r2 link.
func SeqRule(r1, r2 RelType) RuleSpec { return rules.Seq(r1, r2) }

// CombRule follows links of either type freely.
func CombRule(r1, r2 RelType) RuleSpec { return rules.Comb(r1, r2) }
