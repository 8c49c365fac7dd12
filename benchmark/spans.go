package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer's public entry, made from the
// benchmark's own files. Spans of one traced request share Request;
// Parent is the span of the caller (0 for a request's root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Request  int    `json:"request"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s *span) micros() float64 { return float64(s.EndNS-s.StartNS) / 1e3 }

// recorder keeps spans in memory; they are written out once, when the
// benchmark ends.
type recorder struct {
	origin   time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{origin: time.Now(), workload: workload}
}

// time runs f as a span named name under parent and returns the span's
// ID.
func (r *recorder) time(name string, parent, request int, f func()) int {
	id := len(r.spans) + 1
	start := time.Since(r.origin).Nanoseconds()
	f()
	end := time.Since(r.origin).Nanoseconds()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Request: request, StartNS: start, EndNS: end})
	return id
}

// overshootTolerance is how far the children of a span may together
// exceed it before the trace is called inconsistent. Children are
// separate replays of the same input, so a little overshoot is timing
// noise; more means a replay did different work from the call it stands
// for.
const overshootTolerance = 0.05

// selfTimes returns each span's self time in microseconds, keyed by span
// ID: its duration minus the durations of its direct children, never
// below zero. overshoot lists the spans whose children exceed them by
// more than overshootTolerance.
func selfTimes(spans []span) (self map[int]float64, overshoot []int) {
	self = make(map[int]float64, len(spans))
	children := make(map[int]float64)
	for i := range spans {
		self[spans[i].ID] = spans[i].micros()
		if spans[i].Parent != 0 {
			children[spans[i].Parent] += spans[i].micros()
		}
	}
	for i := range spans {
		id := spans[i].ID
		c := children[id]
		if c > self[id]*(1+overshootTolerance) {
			overshoot = append(overshoot, id)
		}
		if self[id] -= c; self[id] < 0 {
			self[id] = 0
		}
	}
	return self, overshoot
}

// layerOf maps a span name to the layer whose self time it adds to.
func layerOf(name string) string {
	if name == "request" {
		return "transport"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// requestSelf sums, per traced request, the self time (from selfTimes)
// of each layer. The result is indexed by request number.
func requestSelf(spans []span, self map[int]float64) []map[string]float64 {
	n := 0
	for i := range spans {
		if spans[i].Request >= n {
			n = spans[i].Request + 1
		}
	}
	out := make([]map[string]float64, n)
	for i := range spans {
		r := spans[i].Request
		if out[r] == nil {
			out[r] = make(map[string]float64)
		}
		out[r][layerOf(spans[i].Name)] += self[spans[i].ID]
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
