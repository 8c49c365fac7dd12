package machine

import (
	"snap1/internal/mpmem"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// cluster is one SNAP-1 multiprocessing cluster: a processing unit (PU)
// that decodes broadcast instructions, a pool of marker units (MUs) that
// process markers and search the knowledge base, and a communication unit
// (CU) that moves marker activations through the interconnect. The three
// functional-unit classes are modeled by separate virtual clocks; the MU
// pool is a set of free-at times so intra-cluster task parallelism is
// captured without simulating each MU as its own goroutine.
type cluster struct {
	id    int
	store *semnet.Store // window id of the machine's status table

	// Virtual clocks.
	puFree timing.Time   // instruction decode pipeline
	muFree []timing.Time // marker units' free-at times, earliest first (muRun)
	cuFree timing.Time   // message (dis)assembly pipeline
	last   timing.Time   // latest completion seen in this cluster

	// Multiport-memory discipline (exercised by the concurrent engine).
	arb  *mpmem.Arbiter
	sems *mpmem.Table

	// Per-propagation-phase state, owned by the cluster's goroutine
	// during a phase (or by the lockstep engine single-threaded). The
	// pending-task queue is split in two (see pushTask): run holds every
	// task that arrived in (ready, seq) order and pops FIFO without any
	// heap discipline, tasks is a min-heap for the out-of-order rest.
	// popTask takes the smaller head of the two.
	tasks   []task    // min-heap payloads on (ready, seq)
	keys    []taskKey // heap keys, parallel to tasks: compares touch only this
	run     []task    // sorted run, consumed from runHead
	runHead int
	taskSeq uint64
	visited visitTable
	stats   phaseStats

	// The CU's transit-message FIFO, consumed from relayHead. resetPhase
	// re-slices it to zero, so one backing array serves the machine's life.
	relayQ    []transitMsg
	relayHead int

	// expand's child list, reused so the steady-state propagation loop
	// allocates nothing per task.
	childScratch []childSpec
}

// semaphore table entries guarding cluster-shared control state.
const (
	semActivation = iota // marker activation memory allocation
	numClusterSems
)

// newClusters builds the array around a status table, one cluster per
// window.
func newClusters(cfg *Config, tab *semnet.Table) []*cluster {
	clusters := make([]*cluster, cfg.Clusters)
	for id := range clusters {
		c := &cluster{
			id:     id,
			store:  tab.Store(id),
			muFree: make([]timing.Time, cfg.musOf(id)),
		}
		c.visited.cap = cfg.NodesPerCluster
		c.arb = mpmem.NewArbiter(cfg.Seed + int64(id))
		c.sems = mpmem.NewTable(numClusterSems, c.arb)
		clusters[id] = c
	}
	return clusters
}

func (c *cluster) resetClocks() {
	c.puFree, c.cuFree, c.last = 0, 0, 0
	for i := range c.muFree {
		c.muFree[i] = 0
	}
}

// decode charges the PU pipeline for one broadcast instruction arriving at
// bAt and returns the time at which marker-unit work may begin.
func (c *cluster) decode(m *Machine, bAt timing.Time) timing.Time {
	start := timing.Max(c.puFree, bAt)
	end := start + m.cost.PECost(m.cost.DecodeCycles+m.cost.EnqueueCycles)
	c.puFree = end
	if end > c.last {
		c.last = end
	}
	return end
}

// muRun schedules one task on the earliest-free marker unit, starting no
// earlier than ready, and returns its completion time. Marker units are
// interchangeable, so only the multiset of free-at times is state: the
// earliest is kept at muFree[0] and floated back there with min/max
// (conditional moves) after each booking, because which unit frees first
// is data-dependent and a compare-and-branch scan mispredicts on it.
func (c *cluster) muRun(ready, cost timing.Time) timing.Time {
	mu := c.muFree
	end := max(ready, mu[0]) + cost
	mu[0] = end
	for i := 1; i < len(mu); i++ {
		a, b := mu[0], mu[i]
		mu[0], mu[i] = min(a, b), max(a, b)
	}
	if end > c.last {
		c.last = end
	}
	return end
}

// cuRun charges the CU pipeline for one message operation.
func (c *cluster) cuRun(ready, cost timing.Time) timing.Time {
	start := timing.Max(c.cuFree, ready)
	end := start + cost
	c.cuFree = end
	if end > c.last {
		c.last = end
	}
	return end
}

// task is one queued marker-propagation work unit in the cluster's marker
// processing memory.
type task struct {
	local    int32
	marker   semnet.MarkerID
	rule     rules.Token
	state    rules.State
	fn       semnet.FuncCode
	value    float32
	origin   semnet.NodeID
	level    uint16
	ready    timing.Time
	seq      uint64 // heap tie-break: FIFO among equally ready tasks
	isSource bool   // injected by PROPAGATE issue; does not mark its node
	fromMsg  bool   // arrived through the ICN; owes a Consumed count
}

// transitMsg is a message awaiting relay by this cluster's CU.
type transitMsg struct {
	msg     interMsg
	arrival timing.Time
}

// visitTable is the per-phase (marker, rule, state, node) visit record.
// The seed used a Go map keyed by a four-field struct; its hashing and
// probing dominated the host profile (~40% of phase time). The table
// instead interns each phase's few (marker, rule, state) combinations
// into dense per-node lanes, stamped with a phase epoch so reset is O(1)
// and the lane storage is pooled for the machine's lifetime.
type visitTable struct {
	epoch  uint32
	combos []uint32 // packed (marker, rule, state), index = lane
	lanes  [][]visitEntry
	cap    int // node-table capacity; fixes every lane's length
}

type visitEntry struct {
	epoch uint32
	val   float32
}

func packVisitKey(marker semnet.MarkerID, rule rules.Token, state rules.State) uint32 {
	return uint32(marker)<<16 | uint32(rule)<<8 | uint32(state)
}

// slot returns the entry for (key, local), interning key's lane on first
// use this phase. A phase touches a handful of combinations (one per
// overlapped PROPAGATE and rule state), so the linear scan beats any
// hash. An entry is live only when its epoch matches the table's.
func (v *visitTable) slot(key uint32, local int) *visitEntry {
	for i, k := range v.combos {
		if k == key {
			return &v.lanes[i][local]
		}
	}
	v.combos = append(v.combos, key)
	if len(v.lanes) < len(v.combos) {
		v.lanes = append(v.lanes, make([]visitEntry, v.cap))
	}
	return &v.lanes[len(v.combos)-1][local]
}

// reset invalidates every entry and forgets the phase's lane interning;
// lane storage is retained for reuse. When the epoch wraps, stamps from
// 2^32 phases ago would read as live again, so the lanes are wiped and
// the count restarts above the zero they now hold.
func (v *visitTable) reset() {
	v.epoch++
	if v.epoch == 0 {
		for _, lane := range v.lanes {
			clear(lane)
		}
		v.epoch = 1
	}
	v.combos = v.combos[:0]
}

// phaseStats accumulates one cluster's contribution to a phase's
// measurements; summed by the machine at the barrier.
type phaseStats struct {
	steps     int64 // link traversals
	sends     int64 // inter-cluster activations injected
	bursts    int64 // coalesced same-next-hop send groups
	hops      int64 // port-to-port transfers (filled by the lockstep engine)
	sources   int64 // source activations (α contribution)
	dropDepth int64 // tasks cut off by the MaxDepth safety net
	comm      timing.Time
}

func (c *cluster) resetPhase() {
	c.tasks = c.tasks[:0] // backing arrays pooled across phases
	c.keys = c.keys[:0]
	c.run = c.run[:0]
	c.runHead = 0
	c.taskSeq = 0
	c.relayQ, c.relayHead = c.relayQ[:0], 0
	c.visited.reset()
	c.stats = phaseStats{}
}

// The task queue pops pending work in (ready, seq) order: marker units
// pull the earliest-available work first, so a late-arriving remote
// activation cannot head-of-line block tasks that are already runnable
// (the hardware MUs poll the marker processing memory for ready entries).
// seq is unique, so (ready, seq) is a total order and the pop sequence is
// fully determined no matter how the pending set is stored.
//
// Storage is split by arrival order, not by origin. A push whose ready is
// not earlier than the last task appended to the sorted run joins the run
// (seq ascends with every push, so the run stays sorted on (ready, seq))
// and will pop from its front in O(1). That is every source task — the
// status scan emits them with nondecreasing ready — and most children: a
// child's ready is its parent's muRun end, and those ends are nearly
// monotone. Only a push that arrives earlier than the run's tail (mostly
// a remote delivery overtaking local work) goes to a 4-ary min-heap that
// sifts a hole instead of swapping, with the (ready, seq) keys held in an
// array parallel to the payloads: the four children of a heap node are 64
// contiguous key bytes — one cache line — so a sift level is one line
// touch plus one payload move. popTask takes the smaller head of run and
// heap.

const heapArity = 4

// taskKey is a heap element's ordering key.
type taskKey struct {
	ready timing.Time
	seq   uint64
}

func (a taskKey) less(b taskKey) bool {
	return a.ready < b.ready || (a.ready == b.ready && a.seq < b.seq)
}

// pushTask queues t behind everything already pushed this phase: the one
// way into the queue, for sources, local children and deliveries alike.
func (c *cluster) pushTask(t task) {
	t.seq = c.taskSeq
	c.taskSeq++
	n := len(c.run)
	if n > 0 && t.ready < c.run[n-1].ready {
		c.heapPush(t)
		return
	}
	if n == cap(c.run) && c.runHead >= n-c.runHead {
		// Full, and at least half of it already popped: slide the pending
		// tail down over the consumed prefix instead of growing, so the
		// run's memory tracks pending tasks, not a phase's total. Each
		// slide moves no more tasks than were popped since the last one.
		n = copy(c.run, c.run[c.runHead:])
		c.run, c.runHead = c.run[:n], 0
	}
	c.run = append(c.run, t)
}

func (c *cluster) heapPush(t task) {
	k := taskKey{ready: t.ready, seq: t.seq}
	c.tasks = append(c.tasks, t)
	c.keys = append(c.keys, k)
	i := len(c.tasks) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !k.less(c.keys[p]) {
			break
		}
		c.tasks[i], c.keys[i] = c.tasks[p], c.keys[p]
		i = p
	}
	c.tasks[i], c.keys[i] = t, k
}

func (c *cluster) popTask() (task, bool) {
	if c.runHead < len(c.run) {
		s := &c.run[c.runHead]
		if len(c.keys) == 0 || (taskKey{ready: s.ready, seq: s.seq}).less(c.keys[0]) {
			c.runHead++
			if c.runHead == len(c.run) {
				c.run, c.runHead = c.run[:0], 0
			}
			return *s, true
		}
		return c.heapPop(), true
	}
	if len(c.tasks) == 0 {
		return task{}, false
	}
	return c.heapPop(), true
}

func (c *cluster) heapPop() task {
	t := c.tasks[0]
	n := len(c.tasks) - 1
	last, lastKey := c.tasks[n], c.keys[n]
	c.tasks, c.keys = c.tasks[:n], c.keys[:n]
	if n > 0 {
		// Sift the displaced tail element down from the root hole.
		i := 0
		for {
			first := heapArity*i + 1
			if first >= n {
				break
			}
			end := first + heapArity
			if end > n {
				end = n
			}
			min, minKey := first, c.keys[first]
			for j := first + 1; j < end; j++ {
				if c.keys[j].less(minKey) {
					min, minKey = j, c.keys[j]
				}
			}
			if !minKey.less(lastKey) {
				break
			}
			c.tasks[i], c.keys[i] = c.tasks[min], c.keys[min]
			i = min
		}
		c.tasks[i], c.keys[i] = last, lastKey
	}
	return t
}

func (c *cluster) pendingTasks() int { return len(c.tasks) + len(c.run) - c.runHead }

// childSpec is one propagation step produced by expanding a task.
type childSpec struct {
	to    semnet.NodeID
	state rules.State
	value float32
	level uint16
}

// expand performs the functional half of task processing, shared by both
// engines: visited/merge bookkeeping, marker status and value-register
// updates, and the relation-table walk. It returns the children to
// dispatch and the marker-unit cost of the whole task. The returned
// slice aliases the cluster's reusable scratch and is valid only until
// the next expand on this cluster; both engines consume it immediately.
//
// Determinism: the value register converges to the Merge over all arriving
// values regardless of order; a (marker, rule, state, node) key re-expands
// only when its merged value strictly improves, so binary markers expand
// exactly once per key and cost markers settle Bellman-Ford style.
func (c *cluster) expand(m *Machine, t task) (children []childSpec, cost timing.Time) {
	children = c.childScratch[:0]
	cm := &m.cost
	cycles := cm.TaskSwitchCycles
	rule := m.curRules.Rule(t.rule)

	doExpand := true
	value := t.value
	if !t.isSource {
		cycles += cm.StatusWordCycles // marker status read-modify-write
		slot := c.visited.slot(packVisitKey(t.marker, t.rule, t.state), int(t.local))
		if slot.epoch == c.visited.epoch {
			merged := t.fn.Merge(slot.val, t.value)
			if merged == slot.val {
				doExpand = false
			} else {
				slot.val = merged
				value = merged
			}
		} else {
			slot.epoch = c.visited.epoch
			slot.val = t.value
		}

		newly := c.store.Set(int(t.local), t.marker)
		if t.marker.IsComplex() {
			if newly {
				c.store.SetValue(int(t.local), t.marker, value, t.origin)
			} else {
				old := c.store.Value(int(t.local), t.marker)
				merged := t.fn.Merge(old, value)
				if merged != old {
					c.store.SetValue(int(t.local), t.marker, merged, t.origin)
				} else if m.strict && value == old &&
					c.store.Origin(int(t.local), t.marker) != t.origin {
					// Equal-value delivery from a different origin during a
					// strict run: the origin register is schedule-dependent
					// here, so flag the run for fallback.
					m.tie.Store(true)
				}
			}
		}
	}

	if doExpand && int(t.level) >= m.cfg.MaxDepth {
		doExpand = false
		c.stats.dropDepth++
	}
	if doExpand && rule != nil && !rule.Terminal(t.state) {
		links := c.store.Links(int(t.local))
		cycles += cm.RelSlotCycles * int64(len(links))
		for _, l := range links {
			if l.Rel == semnet.RelCont {
				// Preprocessor continuation: transparent hop — same rule
				// state, same value, no function application, same tier,
				// and only a pointer-chase charge.
				children = append(children, childSpec{to: l.To, state: t.state, value: value, level: t.level})
				cycles += cm.ContHopCycles
				continue
			}
			next, follow := rule.Next(t.state, l.Rel)
			if !follow {
				continue
			}
			children = append(children, childSpec{
				to:    l.To,
				state: next,
				value: t.fn.Apply(value, l.Weight),
				level: t.level + 1,
			})
			cycles += cm.PropUpdateCycles
		}
		c.stats.steps += int64(len(children))
	}
	c.childScratch = children // retain any growth for the next task
	return children, cm.PECost(cycles)
}
