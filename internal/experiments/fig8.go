package experiments

import (
	"fmt"
	"strings"
)

// Fig8Result is the marker-traffic time distribution: inter-cluster
// marker activation messages at each barrier synchronization point during
// a parse (the paper measures a mean of 11.49 with bursts over 30).
type Fig8Result struct {
	Series []int64 // messages per synchronization point, in program order
	Mean   float64
	Max    int64
	Bursts int // synchronization points with more than 30 messages
}

// Fig8 parses the evaluation sentences on the 16-cluster configuration
// and reports the per-barrier message series.
func Fig8() (*Fig8Result, error) {
	m, g, err := nluSetup(9000, 16, paperConfig())
	if err != nil {
		return nil, err
	}
	p := newParser(m, g)
	prof, _, err := parseBatch(p, g, 1)
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{Series: prof.MessagesPerBarrier(), Mean: prof.MeanMessagesPerBarrier()}
	for _, v := range out.Series {
		if v > out.Max {
			out.Max = v
		}
		if v > 30 {
			out.Bursts++
		}
	}
	return out, nil
}

// String renders the series as a text sparkline plus summary statistics.
func (f *Fig8Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 8: marker activation messages per barrier synchronization point\n")
	fmt.Fprintf(&b, "sync points %d, mean %.2f msgs, max %d, bursts>30: %d\n",
		len(f.Series), f.Mean, f.Max, f.Bursts)
	for i, v := range f.Series {
		fmt.Fprintf(&b, "%4d %6d %s\n", i, v, strings.Repeat("#", scaleBar(v, f.Max, 50)))
	}
	return b.String()
}

func scaleBar(v, max int64, width int) int {
	if max <= 0 || v <= 0 {
		return 0
	}
	n := int(v * int64(width) / max)
	if n == 0 {
		n = 1
	}
	return n
}
