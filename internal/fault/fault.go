// Package fault is the deterministic fault-injection layer for the
// simulated SNAP-1 hardware. A declarative Plan (a seed plus per-site
// rate/trigger rules) arms an Injector per machine replica; every
// injection decision is drawn from a seeded per-site splitmix64 stream,
// so a failure run is bit-reproducible: the same plan, replica, and
// decision order yield the same faults.
//
// Injection sites mirror the components that fail or stall in a real
// array deployment:
//
//   - icn-drop / icn-dup / icn-delay: a marker-activation message is
//     lost in transit, delivered twice, or delayed on its hop. The
//     simulated CU detects the corruption (the hardware's parity/CRC
//     role), so a run that suffered any of these reports ErrInjected
//     instead of silently returning wrong markers.
//   - machine-wedge: a whole replica stops responding until its
//     caller's context deadline — the wedged-board failure mode.
//   - machine-slow: a replica serves, but late.
//
// Every decision is drawn by the machine layer: the lockstep engine asks
// per message as it routes, RunContext asks once per run.
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// ErrInjected marks a run whose ICN traffic was corrupted by injected
// faults. It is retryable: re-running the same program on an unfaulted
// attempt yields the bit-identical fault-free result.
var ErrInjected = errors.New("fault: injected failure")

// Site identifies one injection point in the simulated hardware.
type Site uint8

// Injection sites. The numeric values are part of the contract — a site's
// decision stream is seeded from (plan seed, site, replica) and perfmon's
// fault-injected status word is the site — so the retired site 3 stays
// unassigned rather than renumbering its successors.
const (
	ICNDrop      Site = iota // message lost in transit
	ICNDup                   // message delivered twice
	ICNDelay                 // message delayed on its hop
	_                        // retired
	MachineWedge             // replica unresponsive until its deadline
	MachineSlow              // replica responds late
	numSites
)

var siteNames = [numSites]string{
	ICNDrop:      "icn-drop",
	ICNDup:       "icn-dup",
	ICNDelay:     "icn-delay",
	MachineWedge: "machine-wedge",
	MachineSlow:  "machine-slow",
}

func (s Site) String() string {
	if int(s) < len(siteNames) && siteNames[s] != "" {
		return siteNames[s]
	}
	return fmt.Sprintf("site-%d", uint8(s))
}

// ParseSite resolves a plan-file site name.
func ParseSite(name string) (Site, error) {
	for i, n := range siteNames {
		if n != "" && n == name {
			return Site(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown site %q", name)
}

// Default magnitudes for rules that omit them.
const (
	// DefaultDelayPs is icn-delay's added virtual transit time: ten
	// hop latencies (the paper's port-to-port transfer is 80 ns).
	DefaultDelayPs = 800_000
	// DefaultStall is the host-time stall for machine-slow.
	DefaultStall = 100 * time.Microsecond
)

// Rule schedules one site's injections. Rate is the per-decision
// probability; After skips the site's first decisions, and Count caps
// how many injections the rule may fire (0 = unlimited) — together they
// express trigger schedules like "wedge the third run, once".
type Rule struct {
	// Site names the injection point (see Site constants).
	Site string `json:"site"`
	// Rate is the per-decision injection probability in [0, 1].
	Rate float64 `json:"rate"`
	// After skips the site's first N decisions.
	After int64 `json:"after,omitempty"`
	// Count caps the rule's total injections; 0 means unlimited.
	Count int64 `json:"count,omitempty"`
	// Replica restricts the rule to one replica rank; nil arms it on
	// every replica.
	Replica *int `json:"replica,omitempty"`
	// DelayPs is icn-delay's added virtual transit time in picoseconds
	// (DefaultDelayPs when 0).
	DelayPs int64 `json:"delay_ps,omitempty"`
	// StallUs is the host stall for machine-slow in microseconds
	// (DefaultStall when 0).
	StallUs int64 `json:"stall_us,omitempty"`
}

// Plan is a declarative, seeded fault schedule. The zero value (and a
// nil *Plan) injects nothing.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Parse decodes and validates a JSON plan.
func Parse(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and validates a JSON plan file.
func Load(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Validate reports every invalid rule joined into one error.
func (p *Plan) Validate() error {
	var errs []error
	for i, r := range p.Rules {
		if _, err := ParseSite(r.Site); err != nil {
			errs = append(errs, fmt.Errorf("rule %d: %w", i, err))
		}
		if r.Rate < 0 || r.Rate > 1 {
			errs = append(errs, fmt.Errorf("rule %d: rate %g outside [0, 1]", i, r.Rate))
		}
		if r.After < 0 {
			errs = append(errs, fmt.Errorf("rule %d: after %d negative", i, r.After))
		}
		if r.Count < 0 {
			errs = append(errs, fmt.Errorf("rule %d: count %d negative", i, r.Count))
		}
		if r.Replica != nil && *r.Replica < 0 {
			errs = append(errs, fmt.Errorf("rule %d: replica %d negative", i, *r.Replica))
		}
		if r.DelayPs < 0 || r.StallUs < 0 {
			errs = append(errs, fmt.Errorf("rule %d: negative delay/stall", i))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("fault: invalid plan: %w", errors.Join(errs...))
}

// Injector builds the runtime injector for one replica rank: the rules
// matching that replica, each armed with its own PRNG stream derived
// from (plan seed, site, replica). A nil plan returns a nil injector,
// which every draw treats as "no faults".
func (p *Plan) Injector(replica int) *Injector {
	if p == nil {
		return nil
	}
	in := &Injector{replica: replica}
	for _, r := range p.Rules {
		if r.Replica != nil && *r.Replica != replica {
			continue
		}
		site, err := ParseSite(r.Site)
		if err != nil {
			continue // Validate rejects these; belt and braces
		}
		st := &in.sites[site]
		st.armed = true
		st.threshold = rateThreshold(r.Rate)
		st.rng = mixSeed(p.Seed, int64(site), int64(replica))
		st.after = r.After
		if r.Count > 0 {
			st.budget = r.Count
		} else {
			st.budget = -1
		}
		st.delayPs = r.DelayPs
		if st.delayPs == 0 {
			st.delayPs = DefaultDelayPs
		}
		st.stall = time.Duration(r.StallUs) * time.Microsecond
		if st.stall == 0 {
			st.stall = DefaultStall
		}
	}
	return in
}

// rateThreshold converts a probability to a uint64 comparison bound.
// Rate 1 maps to the sentinel ^uint64(0), checked before the draw so it
// always fires.
func rateThreshold(rate float64) uint64 {
	if rate >= 1 {
		return ^uint64(0)
	}
	if rate <= 0 {
		return 0
	}
	return uint64(float64(rate*float64(1<<63)) * 2) // rounds the product: no FMA on any GOARCH
}

// mixSeed derives one site stream's initial state (splitmix64 of the
// packed identifiers, so streams are independent across sites and
// replicas).
func mixSeed(seed, site, replica int64) uint64 {
	x := uint64(seed) ^ uint64(site)*0x9e3779b97f4a7c15 ^ uint64(replica)*0xd1342543de82ef95
	// One warm-up step decorrelates nearby seeds.
	splitmix(&x)
	return x
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Injector draws deterministic injection decisions for one replica.
// Each site has an independent seeded stream, so the decision sequence
// at a site depends only on the plan, the replica rank, and how many
// times that site has been consulted. Safe for concurrent use.
type Injector struct {
	replica int
	mu      sync.Mutex // guards hook; sites carry their own locks
	hook    func(Site)
	sites   [numSites]siteState
}

type siteState struct {
	armed bool // immutable after Plan.Injector

	mu        sync.Mutex
	threshold uint64
	rng       uint64
	after     int64
	budget    int64 // remaining injections; -1 = unlimited
	delayPs   int64
	stall     time.Duration
	decisions int64
	injected  int64
}

// SetHook installs a callback fired on every injection (outside the
// injector's locks); the machine layer uses it to emit perfmon
// fault-injected events. Must be set before decisions are drawn.
func (in *Injector) SetHook(fn func(Site)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.hook = fn
	in.mu.Unlock()
}

// decide draws one decision at site s, advancing its stream.
func (in *Injector) decide(s Site) bool {
	if in == nil {
		return false
	}
	st := &in.sites[s]
	if !st.armed {
		return false
	}
	st.mu.Lock()
	st.decisions++
	fire := false
	if st.decisions > st.after && st.budget != 0 {
		if st.threshold == ^uint64(0) || splitmix(&st.rng) < st.threshold {
			fire = true
			st.injected++
			if st.budget > 0 {
				st.budget--
			}
		}
	}
	st.mu.Unlock()
	if fire {
		in.mu.Lock()
		hook := in.hook
		in.mu.Unlock()
		if hook != nil {
			hook(s)
		}
	}
	return fire
}

// DropICN decides whether the next ICN message is lost in transit.
func (in *Injector) DropICN() bool { return in.decide(ICNDrop) }

// DupICN decides whether the next ICN message is delivered twice.
func (in *Injector) DupICN() bool { return in.decide(ICNDup) }

// DelayICN decides whether the next ICN message is delayed, returning
// the added virtual transit time in picoseconds.
func (in *Injector) DelayICN() (int64, bool) {
	if !in.decide(ICNDelay) {
		return 0, false
	}
	st := &in.sites[ICNDelay]
	st.mu.Lock()
	d := st.delayPs
	st.mu.Unlock()
	return d, true
}

// WedgeRun decides whether a whole run wedges (no response until the
// caller's context deadline).
func (in *Injector) WedgeRun() bool { return in.decide(MachineWedge) }

// SlowRun decides whether a run is slowed, returning the host stall
// (0 = no slowdown).
func (in *Injector) SlowRun() time.Duration {
	if !in.decide(MachineSlow) {
		return 0
	}
	st := &in.sites[MachineSlow]
	st.mu.Lock()
	d := st.stall
	st.mu.Unlock()
	return d
}

// Corrupting reports how many result-corrupting ICN faults (drops,
// duplications, delays) have been injected so far. The machine layer
// snapshots it around a run to decide whether the run must be poisoned
// with ErrInjected.
func (in *Injector) Corrupting() int64 {
	if in == nil {
		return 0
	}
	var n int64
	for _, s := range []Site{ICNDrop, ICNDup, ICNDelay} {
		st := &in.sites[s]
		st.mu.Lock()
		n += st.injected
		st.mu.Unlock()
	}
	return n
}

// Total reports every injection fired so far across all sites.
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	var n int64
	for i := range in.sites {
		st := &in.sites[i]
		st.mu.Lock()
		n += st.injected
		st.mu.Unlock()
	}
	return n
}

// SiteStats is one site's decision/injection counters.
type SiteStats struct {
	Site      string `json:"site"`
	Decisions int64  `json:"decisions"`
	Injected  int64  `json:"injected"`
}

// Stats snapshots every armed site's counters.
func (in *Injector) Stats() []SiteStats {
	if in == nil {
		return nil
	}
	var out []SiteStats
	for i := range in.sites {
		st := &in.sites[i]
		if !st.armed {
			continue
		}
		st.mu.Lock()
		out = append(out, SiteStats{Site: Site(i).String(), Decisions: st.decisions, Injected: st.injected})
		st.mu.Unlock()
	}
	return out
}
