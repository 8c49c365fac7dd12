package main

import (
	"reflect"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		used       float64
		value      float64
		beyondAtLe int
	}{
		{n: 5, used: 0.50, value: 3},      // too few for anything: the median
		{n: 20, used: 0.50, value: 10},    // p90 would rest on 2 samples
		{n: 100, used: 0.90, value: 90},   // p99 would rest on 1
		{n: 999, used: 0.90, value: 900},  // 9 beyond p99: still p90
		{n: 1000, used: 0.99, value: 990}, // exactly 10 beyond p99
		{n: 50000, used: 0.99, value: 49500},
	} {
		v, used, beyond := tailQuantile(ramp(tc.n))
		if used != tc.used || v != tc.value {
			t.Errorf("n=%d: got p%g = %g, want p%g = %g", tc.n, 100*used, v, 100*tc.used, tc.value)
		}
		if used > 0.5 && beyond < 10 {
			t.Errorf("n=%d: p%g reported with only %d samples beyond it", tc.n, 100*used, beyond)
		}
	}
	if v, _, _ := tailQuantile(nil); v != 0 {
		t.Errorf("empty sample: got %g", v)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5, 3}
	if got := median(in); got != 4 {
		t.Errorf("even count: got %g, want 4", got)
	}
	if !reflect.DeepEqual(in, []float64{9, 1, 5, 3}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{7, 1, 100}); got != 7 {
		t.Errorf("odd count: got %g, want 7", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: got %g", got)
	}
}

func TestQuietSlicesLooksOnlyAtSlowness(t *testing.T) {
	// Fastest interval 1.00; 1.25 is the last quiet value.
	got := quietSlices([]float64{1.05, 1.00, 1.26, 1.25, 2.0})
	if want := []int{0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := quietSlices(nil); got != nil {
		t.Errorf("no slices: got %v", got)
	}
}

// A run's host-time figures are medians over its intervals of calibrated
// values: an interval the host ran 2x slow counts at twice its clocked
// rate and half its clocked latency and CPU time.
func TestSummarizeCalibratesThenTakesMedians(t *testing.T) {
	cal := func(s float64) calibration { return calibration{CPUMillis: 50 * s, MemMillis: 90 * s, Slowness: s} }
	mk := func(slow, stolen, rate float64, seq int64) slice {
		return slice{
			Before: cal(slow), After: cal(slow), Stolen: stolen,
			Seconds: 1, Ops: int(rate), RateOpsS: rate, CPUTicks: int64(rate) / 100, // 100 us/op
			recs: []record{{seq: seq, micros: 1e6 / rate, outcome: outcome{ops: 1, vps: 7e6}}},
		}
	}
	m := &measured{slices: []slice{
		mk(1, 0, 1000, 0),
		mk(2, 0, 500, 1),    // CPUs at half speed
		mk(1, 0.5, 500, 2),  // half the interval stolen
		mk(1, 0, 1000, 3),   //
		mk(4, 0.5, 125, 4),  // both; also the only noisy-looking outlier if uncalibrated
		mk(1, 0, 900, 5),    // a genuinely slower interval
		mk(1, 0, 1100, 6),   // and a faster one
		mk(1, 0, 1000, 7),   //
		mk(1, 0, 1000, 8),   //
		mk(1, 0, 1000, 100), // beyond the whole-period cutoff for simulated time
	}}
	m.summarize(10, 3) // 10 issued, period 3: simulated time over seq < 9
	if m.throughput != 1000 {
		t.Errorf("throughput: got %g, want 1000", m.throughput)
	}
	if m.rawThroughput != 1000 || m.latencyP50 != 1000 || m.cpuPerOp != 100 {
		t.Errorf("raw %g (want 1000), p50 %g (want 1000), cpu/op %g (want 100)", m.rawThroughput, m.latencyP50, m.cpuPerOp)
	}
	if m.vtimePerOp != 7 {
		t.Errorf("simulated time per op: got %g, want 7", m.vtimePerOp)
	}
	if m.attempted != 10 || m.failed != 0 {
		t.Errorf("attempted %d failed %d, want 10 and 0", m.attempted, m.failed)
	}
	if m.quiet != 7 || m.noisy {
		t.Errorf("quiet %d noisy %v, want 7 quiet slices and not noisy", m.quiet, m.noisy)
	}
}

// Simulated time per op must come out bit-identical however many whole
// periods of the schedule a run got through.
func TestPerOpMicrosIsExactAcrossPeriodCounts(t *testing.T) {
	const periodPicos, periodOps = 117_227_020_001, 4 // not divisible: a remainder to carry
	want := perOpMicros(periodPicos, periodOps)
	for _, k := range []int64{2, 3, 7, 1000, 1861, 99991} {
		if got := perOpMicros(k*periodPicos, int(k)*periodOps); got != want {
			t.Errorf("%d periods: got %.17g, want %.17g", k, got, want)
		}
	}
	if got := perOpMicros(3_000_000, 2); got != 1.5 {
		t.Errorf("got %g, want 1.5", got)
	}
	if got := perOpMicros(5, 0); got != 0 {
		t.Errorf("no ops: got %g", got)
	}
}
