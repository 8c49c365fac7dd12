package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// slicesPerRun is how many measured intervals a run is cut into; the
// host's speed is probed before the first, between any two, and after
// the last. (-smoke measures one.)
const slicesPerRun = 10

// outcome is what one request did.
type outcome struct {
	ops, failed int   // operations the request carried, and how many failed
	vps         int64 // simulated picoseconds summed over its successful operations
	write       bool
}

// target is the system under test as one workload sees it.
type target interface {
	// do issues request number seq of the measured phase on connection w
	// and waits for its answer: the loop is closed.
	do(w int, seq int64) outcome
	// conns is the number of closed-loop callers.
	conns() int
	// pid is the process whose CPU and memory are charged.
	pid() int
	// period is the number of requests after which the schedule repeats
	// with identical simulated cost, 0 when it never does.
	period() int64
}

// record is one measured request.
type record struct {
	seq    int64
	micros float64
	outcome
}

// slice is one measured interval, bracketed by two calibration probes.
type slice struct {
	Before   calibration `json:"probe_before"`
	After    calibration `json:"probe_after"`
	Seconds  float64     `json:"seconds"`
	Ops      int         `json:"ops"`
	RateOpsS float64     `json:"rate_ops_s"` // as the clock saw it
	CPUTicks int64       `json:"cpu_ticks"`
	Stolen   float64     `json:"stolen_share"` // of the CPU time the guest wanted over the interval
	Quiet    bool        `json:"quiet"`
	recs     []record
}

// slowness is how much slower than a quiet reference host the interval
// ran.
func (s *slice) slowness() float64 { return slowness(s.Before, s.After, s.Stolen) }

// slowness combines the two views of the host an interval has: the
// probes that bracket it say how fast the CPUs were when they ran, the
// steal account says what share of the interval they did not run at
// all. On the sandbox the first halves the run-to-run spread of host
// times when the host is calm; in a burst of steal only the two together
// bring a slice back to its calm-host figure (README, "Noise").
func slowness(before, after calibration, stolen float64) float64 {
	return (before.Slowness + after.Slowness) / 2 / (1 - stolen)
}

// calibration is one run of the probe.
type calibration struct {
	CPUMillis float64 `json:"cpu_ms"`
	MemMillis float64 `json:"mem_ms"`
	// Slowness is the mean of the two parts' durations, each over its
	// reference: 1 on the reference host, above 1 on a slower or busier
	// one.
	Slowness float64 `json:"slowness"`
}

// The probe has two parts, each a random walk with a multiplicative
// step, on as many goroutines as the workload has callers: one over a
// 128 KB buffer (integer work out of the nearest cache, which feels CPU
// steal and a busy sibling thread) and one over 2 MB (which also feels
// neighbours in the shared cache and on the memory bus). The reference
// durations are what the parts take on the 2-vCPU sandbox this was
// written on when it is quiet; they only fix the scale, so that
// calibrated figures read like that host's.
const (
	cpuProbeWords, cpuProbeSteps = 1 << 14, 1 << 23
	memProbeWords, memProbeSteps = 1 << 18, 1 << 22
	cpuProbeRefMillis            = 50.0
	memProbeRefMillis            = 90.0
)

// prober owns the probe's buffers. The same buffers and the same walks
// are used every time, so a slower probe means a slower host.
type prober struct {
	cpu, mem [][]uint64
	sink     atomic.Uint64
}

func newProber(goroutines int) *prober {
	p := &prober{cpu: make([][]uint64, goroutines), mem: make([][]uint64, goroutines)}
	for i := 0; i < goroutines; i++ {
		p.cpu[i] = make([]uint64, cpuProbeWords)
		p.mem[i] = make([]uint64, memProbeWords)
	}
	p.calibrate() // first touch of the buffers is not a calibration
	return p
}

func (p *prober) walk(bufs [][]uint64, steps int) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for g := range bufs {
		wg.Add(1)
		go func(buf []uint64, x uint64) {
			defer wg.Done()
			mask := uint64(len(buf) - 1) // buffer lengths are powers of two
			for i := 0; i < steps; i++ {
				j := x & mask
				x = x*6364136223846793005 + buf[j] + 1442695040888963407
				buf[j] = x
			}
			p.sink.Add(x)
		}(bufs[g], uint64(g+1))
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

func (p *prober) calibrate() calibration {
	// Collect first, so the benchmark's own collector is less likely to
	// run inside the probe or the interval after it.
	runtime.GC()
	c := calibration{CPUMillis: p.walk(p.cpu, cpuProbeSteps), MemMillis: p.walk(p.mem, memProbeSteps)}
	c.Slowness = (c.CPUMillis/cpuProbeRefMillis + c.MemMillis/memProbeRefMillis) / 2
	return c
}

// measureSlice drives t closed-loop from all its connections for d.
// before is the probe that ended just now.
func measureSlice(t target, d time.Duration, cursor *atomic.Int64, p *prober, before calibration) (slice, error) {
	s := slice{Before: before}
	ticks0, err := cpuTicks(t.pid())
	if err != nil {
		return s, err
	}
	host0 := readHostTicks()
	per := make([][]record, t.conns())
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				seq := cursor.Add(1) - 1
				t0 := time.Now()
				o := t.do(w, seq)
				per[w] = append(per[w], record{seq: seq, micros: float64(time.Since(t0).Nanoseconds()) / 1e3, outcome: o})
			}
		}(w)
	}
	wg.Wait()
	s.Seconds = time.Since(start).Seconds()
	ticks1, err := cpuTicks(t.pid())
	if err != nil {
		return s, err
	}
	s.CPUTicks = ticks1 - ticks0
	s.Stolen = readHostTicks().stolenSince(host0)
	s.After = p.calibrate()
	for _, rs := range per {
		s.recs = append(s.recs, rs...)
		for _, r := range rs {
			s.Ops += r.ops - r.failed
		}
	}
	s.RateOpsS = float64(s.Ops) / s.Seconds
	return s, nil
}

// measured is the load phase's result: the slices and what they add up
// to. Host-time figures are calibrated: each interval's figure is scaled
// by the slowness its bracketing probes saw, which on the sandbox halves
// the run-to-run spread (README, "Noise").
type measured struct {
	slices []slice
	noisy  bool

	attempted, failed int

	throughput, latencyP50, cpuPerOp, vtimePerOp float64

	rawThroughput         float64
	p99, p99Used          float64
	p99Beyond             int
	samples               int
	readP50, writeP50     float64
	quiet                 int
	sliceSpread           float64
	probeMin, probeMedian float64
	slownessMedian        float64
	stolenMean            float64
}

// measure runs the measured phase: n slices of sliceDur each.
func measure(t target, n int, sliceDur time.Duration, p *prober) (*measured, error) {
	var cursor atomic.Int64
	m := &measured{}
	last := p.calibrate()
	for len(m.slices) < n {
		s, err := measureSlice(t, sliceDur, &cursor, p, last)
		if err != nil {
			return nil, err
		}
		m.slices = append(m.slices, s)
		last = s.After
	}
	m.summarize(cursor.Load(), t.period())
	return m, nil
}

func (m *measured) summarize(issued, period int64) {
	// Simulated time is free of host noise; but only whole periods of
	// the schedule count, so the figure does not depend on how far into
	// a period the host got.
	cutoff := issued
	if period > 0 && issued >= period {
		cutoff = issued / period * period
	}
	var vps int64
	vops := 0
	var slow, stolen, probeMS, raw, rates, cpu, lat, rlat, wlat []float64
	for i := range m.slices {
		s := &m.slices[i]
		f := s.slowness()
		slow = append(slow, f)
		stolen = append(stolen, s.Stolen)
		probeMS = append(probeMS, s.Before.CPUMillis+s.Before.MemMillis)
		raw = append(raw, s.RateOpsS)
		rates = append(rates, s.RateOpsS*f)
		cpu = append(cpu, ratio(float64(s.CPUTicks)*tickMicros, float64(s.Ops))/f)
		for _, r := range s.recs {
			m.attempted += r.ops
			m.failed += r.failed
			if r.seq < cutoff {
				vps += r.vps
				vops += r.ops - r.failed
			}
			lat = append(lat, r.micros/f)
			if r.write {
				wlat = append(wlat, r.micros/f)
			} else {
				rlat = append(rlat, r.micros/f)
			}
		}
	}
	m.vtimePerOp = perOpMicros(vps, vops)

	for _, i := range quietSlices(slow) {
		m.slices[i].Quiet = true
		m.quiet++
	}
	m.noisy = 2*m.quiet < len(m.slices) // flags a run; selects nothing
	sort.Float64s(probeMS)
	m.probeMin, m.probeMedian = probeMS[0], median(probeMS)
	m.slownessMedian, m.stolenMean = median(slow), mean(stolen)

	sort.Float64s(lat)
	sort.Float64s(rates)
	m.throughput, m.rawThroughput = median(rates), median(raw)
	m.sliceSpread = ratio(rates[len(rates)-1]-rates[0], m.throughput)
	m.latencyP50 = quantile(lat, 0.5)
	m.p99, m.p99Used, m.p99Beyond = tailQuantile(lat)
	m.samples = len(lat)
	m.readP50, m.writeP50 = median(rlat), median(wlat)
	m.cpuPerOp = median(cpu)
	// The per-request records are summed up; a report that kept them
	// would carry a few MB per workload into the next workload's heap.
	for i := range m.slices {
		m.slices[i].recs = nil
	}
}

// perOpMicros is picos/ops in microseconds, computed so that two runs
// that got through different numbers of whole periods of one schedule
// report bit-identical figures. After k periods the remainder fraction
// is (k*r)/(k*n); reducing it to lowest terms removes k, and dividing the
// same two exact integers gives the same float every time.
func perOpMicros(picos int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	n := int64(ops)
	g := gcd(picos%n, n)
	return (float64(picos/n) + float64(picos%n/g)/float64(n/g)) / 1e6
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
