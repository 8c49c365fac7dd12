package machine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"snap1/internal/barrier"
	"snap1/internal/fault"
	"snap1/internal/icn"
	"snap1/internal/isa"
	"snap1/internal/partition"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
	"snap1/internal/trace"
)

// Machine is one SNAP-1 system instance: the cluster array, interconnect,
// barrier hardware, and central controller, with a loaded knowledge base.
type Machine struct {
	cfg  Config
	cost timing.CostModel

	network

	// tab is the marker status table of the whole array; cluster c's
	// store owns window c of it. The broadcast status instructions sweep
	// its planes (exec.go), everything per node goes through the stores.
	tab      *semnet.Table
	clusters []*cluster
	net      *icn.Network
	bar      *barrier.Tiered
	ctrl     *timing.Clock

	curRules *rules.Table // rule microcode for the program being run

	// hopBase is the live network's port-transfer counter as of the last
	// flush, so each concurrent phase's hop traffic is a delta read.
	hopBase int64

	// inj, when armed, injects deterministic hardware faults into runs
	// (see SetFaultInjector). Clones start unarmed.
	inj *fault.Injector

	// dirty is the set of marker planes a run since the last ClearMarkers
	// may have written (the union of each program's write set), so
	// ClearMarkers can clear just those planes instead of the whole slab.
	// Initialized full at construction/LoadKB/Clone out of caution —
	// tests may poke stores directly — and exact thereafter.
	dirty isa.MarkerSet

	// strict arms expand's origin-tie detector for the current run
	// (RunFused, RunOptimized); tie records that it fired. Atomic because
	// the concurrent engine's cluster goroutines share it.
	strict bool
	tie    atomic.Bool

	// COLLECT scratch, reused across runs: collectBits is a bitmap over
	// global node IDs (all zero between collects), collectRows the rows
	// each cluster transferred.
	collectBits []uint64
	collectRows []int64
}

// network is a loaded network apart from its cluster tables: the
// knowledge base, the partition assignment and local index tables, and
// the KB generation the cluster tables currently reflect (LoadKB, a
// mutating run, Adopt and ApplyDelta advance it).
type network struct {
	kb       *semnet.KB
	assign   partition.Assignment
	localIdx []int32
	kbGen    uint64
}

// allDirty marks every marker plane dirty.
func allDirty() isa.MarkerSet { return isa.MarkerSetFromBits(^uint64(0), ^uint64(0)) }

// New constructs a machine from cfg. A knowledge base must be loaded with
// LoadKB before programs can run.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		cost:  cfg.Cost,
		net:   icn.New(cfg.Clusters, cfg.MailboxCap),
		bar:   barrier.New(cfg.Clusters),
		ctrl:  timing.NewClock(timing.ControllerClock),
		dirty: allDirty(),
	}
	m.tab = semnet.NewTable(cfg.Clusters, cfg.NodesPerCluster)
	m.clusters = newClusters(&cfg, m.tab)
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// KB returns the loaded knowledge base (nil before LoadKB).
func (m *Machine) KB() *semnet.KB { return m.kb }

// LoadKB partitions and downloads a knowledge base into the array: the
// preprocessor splits over-fanout nodes, the partition function assigns
// nodes to clusters (followed by the hop-aware placement stage when
// Config.Placement is set), and each cluster's three tables are filled —
// in parallel, one download per cluster, since the per-cluster fills are
// independent once the assignment is fixed. A download copies the node
// table rows, but no link the KB laid out: each store indexes the KB's
// frozen base slab (semnet.Store.Download). Any previously loaded
// network and all marker state are discarded. The downloads read the
// KB's tables directly, so nothing may mutate kb during the call.
func (m *Machine) LoadKB(kb *semnet.KB) error {
	kb.Preprocess()
	if err := kb.Validate(); err != nil {
		return err
	}
	assign, err := m.cfg.Partition(kb, m.cfg.Clusters, m.cfg.NodesPerCluster)
	if err != nil {
		return err
	}
	if m.cfg.Placement {
		assign = partition.Place(kb, assign, m.cfg.Clusters)
	}
	n := kb.NumNodes()
	// Bucket nodes per cluster in ascending global-ID order and fix every
	// local index up front; the per-cluster downloads then share nothing.
	counts := make([]int, m.cfg.Clusters)
	for id := 0; id < n; id++ {
		counts[assign[id]]++
	}
	members := make([][]semnet.NodeID, m.cfg.Clusters)
	for c := range members {
		members[c] = make([]semnet.NodeID, 0, counts[c])
	}
	localIdx := make([]int32, n)
	for id := 0; id < n; id++ {
		c := assign[id]
		localIdx[id] = int32(len(members[c]))
		members[c] = append(members[c], semnet.NodeID(id))
	}
	tab := semnet.NewTable(m.cfg.Clusters, m.cfg.NodesPerCluster)
	clusters := newClusters(&m.cfg, tab)
	errs := make([]error, m.cfg.Clusters)
	// One read lock covers every download: the per-cluster goroutines
	// read the KB's tables through the view, not one lock pair per node.
	kb.View(func(v semnet.View) {
		var wg sync.WaitGroup
		for ci, c := range clusters {
			wg.Add(1)
			go func(ci int, c *cluster) {
				defer wg.Done()
				if err := c.store.Download(v, members[ci]); err != nil {
					errs[ci] = fmt.Errorf("cluster %d: %w", ci, err)
				}
			}(ci, c)
		}
		wg.Wait()
	})
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	m.kb, m.assign, m.localIdx, m.tab, m.clusters = kb, assign, localIdx, tab, clusters
	m.kbGen = kb.Generation()
	m.dirty = allDirty()
	return nil
}

// Close is a no-op: both engines start what goroutines they need inside a
// run and have waited for them when it returns, so a machine holds no
// host resource between runs. It is kept for its callers — the engine,
// the commands and the harness call it on every machine they retire —
// until the deletions of ROADMAP item 1a remove it.
func (m *Machine) Close() {}

// Snapshot is one generation of a loaded network, frozen with every
// cluster's node and relation tables (semnet.Topology): Publish takes
// one, and any number of machines may Adopt it while its publisher goes
// on mutating.
type Snapshot struct {
	network
	topo semnet.Topology
}

// Generation reports the KB generation the snapshot's tables reflect.
func (s *Snapshot) Generation() uint64 { return s.kbGen }

// Publish freezes m's loaded network, at m's KB generation, into a
// Snapshot. Every cluster store is marked shared, so m's next topology
// mutation copies the store it touches first and the snapshot keeps the
// tables it took. O(clusters); m must be idle.
func (m *Machine) Publish() *Snapshot {
	return &Snapshot{network: m.network, topo: m.tab.Share()}
}

// Adopt makes s m's loaded network, in place: each cluster store takes
// the snapshot's tables, shared copy-on-write, and every node sits on
// the cluster it sits on in the publisher — LoadKB's partitioning is not
// repeated. Marker state, clusters and the fault injector stay. m must
// be idle and have the publisher's array size.
func (m *Machine) Adopt(s *Snapshot) {
	m.tab.Adopt(s.topo)
	m.network = s.network
}

// Clone returns a replica of the machine sharing its loaded topology
// (see Publish), with entirely fresh marker state: a query-serving pool
// stamps out replicas in O(markers) per replica. m must be idle.
func (m *Machine) Clone() (*Machine, error) {
	if m.kb == nil {
		return nil, ErrNoKB
	}
	s := m.Publish()
	r := &Machine{
		cfg:     m.cfg,
		cost:    m.cost,
		network: s.network,
		tab:     semnet.NewSharedTable(s.topo),
		net:     icn.New(m.cfg.Clusters, m.cfg.MailboxCap),
		bar:     barrier.New(m.cfg.Clusters),
		ctrl:    timing.NewClock(timing.ControllerClock),
		dirty:   allDirty(),
	}
	r.clusters = newClusters(&r.cfg, r.tab)
	return r, nil
}

// Item is one retrieved result row. Fields beyond Node are populated
// according to the collecting opcode.
type Item struct {
	Node   semnet.NodeID
	Value  float32
	Origin semnet.NodeID
	Color  semnet.Color
	Rel    semnet.RelType
	Weight float32
	To     semnet.NodeID
}

// Collection is the result of one retrieval instruction.
type Collection struct {
	Instr int // index into the program's instruction stream
	Op    isa.Opcode
	Items []Item
}

// Result is one program run's outcome: total simulated time, the
// instrumentation profile, and every retrieval instruction's rows. A
// result an engine.Engine answers with carries no profile.
type Result struct {
	Time        timing.Time
	Profile     *trace.Profile
	Collections []Collection

	// Fused marks a result demultiplexed from a fused multi-query run:
	// Time is the fused run's end and Profile is shared with the other
	// members, so the result is not reproducible by a solo run of the
	// same program and must not enter bit-identity result caches.
	Fused bool

	// KBGen is the KB generation snapshot the run observed (after its
	// own mutations, for a mutating program). A result is reproducible
	// exactly against the topology of this generation; the engine keys
	// its result cache on it.
	KBGen uint64

	kb *semnet.KB
}

// Collected returns the items of the i'th retrieval instruction executed
// (in program order), or nil when fewer collections ran.
func (r *Result) Collected(i int) []Item {
	if i < 0 || i >= len(r.Collections) {
		return nil
	}
	return r.Collections[i].Items
}

// Names resolves a collection's items to sorted canonical concept names.
func (r *Result) Names(i int) []string {
	items := r.Collected(i)
	ids := make([]semnet.NodeID, len(items))
	for j, it := range items {
		ids[j] = it.Node
	}
	return r.kb.Names(ids)
}

// ErrNoKB is returned by Run before a knowledge base is loaded.
var ErrNoKB = errors.New("machine: no knowledge base loaded")

// Run executes a SNAP program to completion and returns its result.
// Marker state persists across runs (load-then-query programming); use
// ClearMarkers between independent experiments.
func (m *Machine) Run(prog *isa.Program) (*Result, error) {
	return m.RunContext(context.Background(), prog)
}

// RunContext executes a SNAP program, honoring ctx cancellation and
// deadline between instructions — the granularity at which the central
// controller's program control processor can abandon a broadcast stream.
// On cancellation it returns ctx's error; marker state is left partially
// updated (as after any aborted run) and the machine remains usable after
// ClearMarkers.
func (m *Machine) RunContext(ctx context.Context, prog *isa.Program) (*Result, error) {
	if m.kb == nil {
		return nil, ErrNoKB
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if err := m.injectRunFaults(ctx); err != nil {
		return nil, err
	}
	if prog.Mutating() {
		// The run advances the KB generation instruction by instruction;
		// the loaded tables track it exactly (exec mirrors every store
		// mutation into the KB), including down error paths that abandon
		// the run after a partial prefix.
		defer func() { m.kbGen = m.kb.Generation() }()
	}
	corruptBefore := m.inj.Corrupting()
	m.resetClocks()
	m.curRules = prog.Rules
	m.dirty = m.dirty.Union(prog.WriteSet())
	st := &runState{
		prof: &trace.Profile{},
		res:  &Result{kb: m.kb},
	}
	for i := range prog.Instrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in := &prog.Instrs[i]
		m.broadcast(st)
		bAt := m.ctrl.Now()
		if in.Op == isa.OpPropagate {
			if len(st.batch) >= m.cfg.InstrQueueCap || st.win.Conflicts(in) {
				m.flush(st)
			}
			st.push(i, in, bAt)
			continue
		}
		if in.Serializing() || st.win.Conflicts(in) {
			m.flush(st)
			bAt = timing.Max(bAt, m.ctrl.Now())
		}
		if err := m.exec(st, i, in, bAt); err != nil {
			return nil, fmt.Errorf("instruction %d (%s): %w", i, in.Op, err)
		}
	}
	m.flush(st)

	end := m.ctrl.Now()
	var busySum timing.Time
	for _, c := range m.clusters {
		end = timing.Max(end, c.last)
		busy := c.muBusyPerMU(c.load.muBusy)
		busySum += busy
		st.prof.MUBusyMax = timing.Max(st.prof.MUBusyMax, busy)
	}
	st.prof.MUBusyMean = busySum / timing.Time(len(m.clusters))
	st.prof.Elapsed = end
	st.res.Time = end
	st.res.Profile = st.prof
	if prog.Mutating() {
		st.res.KBGen = m.kb.Generation()
	} else {
		st.res.KBGen = m.kbGen
	}
	if err := m.poisonIfCorrupted(corruptBefore); err != nil {
		return nil, err
	}
	return st.res, nil
}

// broadcast accounts one instruction's controller pipeline and global-bus
// time (PCP issue, SCP broadcast).
func (m *Machine) broadcast(st *runState) {
	cycles := m.cost.IssueCycles + m.cost.BroadcastCycles
	m.ctrl.Tick(cycles)
	st.prof.Overhead.Broadcast += m.cost.CtrlCost(cycles)
}

func (m *Machine) resetClocks() {
	m.ctrl.Reset()
	for _, c := range m.clusters {
		c.resetClocks()
	}
	m.net.ResetStats()
	m.hopBase = 0
}

// runState is the per-Run controller state: the instrumentation profile,
// accumulated results, and the PU overlap window of pending PROPAGATEs
// (batch holds them, win the planes they touch).
type runState struct {
	prof *trace.Profile
	res  *Result

	batch []batchEntry
	win   isa.Window
}

type batchEntry struct {
	idx int
	in  *isa.Instruction
	bAt timing.Time
}

func (st *runState) push(idx int, in *isa.Instruction, bAt timing.Time) {
	st.batch = append(st.batch, batchEntry{idx: idx, in: in, bAt: bAt})
	st.win.Push(in)
}

// ClearMarkers clears every marker at every node (between experiments).
// This host-level reset charges no virtual time (the per-instruction path
// is OpClearMarker). Only planes a run could have written since the last
// clear are touched — one memclr per dirty plane, so the reset between
// (fused) queries is proportional to the planes used, not the whole
// 128-plane slab. Registers are not cleared: every kernel that sets a
// complex marker's bit writes its registers, so a stale one is never
// read (TestUsedReplicaMatchesFresh).
func (m *Machine) ClearMarkers() {
	m.tab.ClearRows(m.dirty.Bits())
	m.dirty = isa.MarkerSet{}
}

// TestMarker reports whether marker mk is set at global node id.
func (m *Machine) TestMarker(id semnet.NodeID, mk semnet.MarkerID) bool {
	c := m.clusters[m.assign[id]]
	return c.store.Test(int(m.localIdx[id]), mk)
}

// MarkerValue reads the complex-marker value register at global node id.
func (m *Machine) MarkerValue(id semnet.NodeID, mk semnet.MarkerID) float32 {
	c := m.clusters[m.assign[id]]
	return c.store.Value(int(m.localIdx[id]), mk)
}

// MarkerCount reports how many nodes array-wide have mk set.
func (m *Machine) MarkerCount(mk semnet.MarkerID) int { return m.tab.CountSet(mk) }

// ClusterOf reports the cluster holding global node id.
func (m *Machine) ClusterOf(id semnet.NodeID) int { return m.assign[id] }
