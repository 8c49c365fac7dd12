package main

import (
	"math"
	"sort"
)

// median of xs; 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile (nearest rank) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile reports the highest of p50, p90 and p99 that still has at
// least ten samples beyond it: a percentile resting on fewer is one or
// two slow requests, not a property of the system. It returns the value,
// the percentile used and the number of samples beyond it.
func tailQuantile(sorted []float64) (value, used float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	used = 0.50
	for _, q := range []float64{0.90, 0.99} {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			used = q
		}
	}
	return quantile(sorted, used), used, n - int(math.Ceil(used*float64(n)))
}

// quietTolerance is how much slower than the run's fastest interval an
// interval may have run, by its calibration probes, to count as quiet.
// On the sandbox the probes of a calm run stay within a fifth of each
// other; a tenth flagged every run.
const quietTolerance = 1.25

// quietSlices returns the indices of the intervals whose slowness is
// within quietTolerance of the smallest of the run. It looks only at the
// probes, never at a metric.
func quietSlices(slowness []float64) []int {
	if len(slowness) == 0 {
		return nil
	}
	fastest := slowness[0]
	for _, f := range slowness {
		fastest = math.Min(fastest, f)
	}
	var quiet []int
	for i, f := range slowness {
		if f <= fastest*quietTolerance {
			quiet = append(quiet, i)
		}
	}
	return quiet
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
