package main

import (
	"math"
	"testing"
)

func sp(id, parent int, name string, req int, startUS, endUS int64) span {
	return span{ID: id, Parent: parent, Name: name, Request: req, StartNS: startUS * 1000, EndNS: endUS * 1000}
}

// The replays of one request in the shape the tracer records them:
// sequential in time, nested by Parent.
func sampleTrace() []span {
	return []span{
		sp(1, 0, "request", 0, 0, 200),
		sp(2, 1, "server.handle", 0, 210, 310),  // 100
		sp(3, 2, "engine.compile", 0, 320, 330), // 10
		sp(4, 3, "isa.assemble", 0, 340, 347),   // 7
		sp(5, 2, "engine.submit", 0, 350, 400),  // 50
		sp(6, 5, "isa.validate", 0, 410, 411),   // 1
		sp(7, 5, "isa.optimize", 0, 420, 423),   // 3
		sp(8, 5, "machine.clear", 0, 430, 432),  // 2
		sp(9, 5, "machine.run", 0, 440, 470),    // 30
	}
}

func TestSelfTimeIsSpanMinusDirectChildren(t *testing.T) {
	self, overshoot := selfTimes(sampleTrace())
	want := map[int]float64{1: 100, 2: 40, 3: 3, 4: 7, 5: 14, 6: 1, 7: 3, 8: 2, 9: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %g, want %g", id, self[id], w)
		}
	}
	if len(overshoot) != 0 {
		t.Errorf("overshoot %v in a consistent trace", overshoot)
	}
}

func TestLayerSelfTimesTelescopeToTheRequest(t *testing.T) {
	self, _ := selfTimes(sampleTrace())
	per := requestSelf(sampleTrace(), self)
	if len(per) != 1 {
		t.Fatalf("got %d requests, want 1", len(per))
	}
	want := map[string]float64{"transport": 100, "server": 40, "engine": 17, "isa": 11, "machine": 32}
	sum := 0.0
	for layer, w := range want {
		if per[0][layer] != w {
			t.Errorf("%s: self %g, want %g", layer, per[0][layer], w)
		}
		sum += per[0][layer]
	}
	if sum != 200 {
		t.Errorf("layers sum to %g, want the request's 200", sum)
	}
}

func TestChildrenBeyondToleranceAreReportedAndClamped(t *testing.T) {
	spans := []span{
		sp(1, 0, "request", 0, 0, 100),
		sp(2, 1, "server.handle", 0, 100, 204), // 4% over its parent: noise
		sp(3, 2, "engine.submit", 0, 210, 320), // 110 against 104: a replay that did other work
	}
	self, overshoot := selfTimes(spans)
	if len(overshoot) != 1 || overshoot[0] != 2 {
		t.Errorf("overshoot %v, want [2]: only server.handle's children exceed it by more than %g", overshoot, overshootTolerance)
	}
	if self[1] != 0 || self[2] != 0 {
		t.Errorf("self times %g, %g: a span exceeded by its children has none left", self[1], self[2])
	}
	if math.Abs(self[3]-110) > 1e-9 {
		t.Errorf("leaf self %g, want 110", self[3])
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"request": "transport", "server.handle": "server", "machine.apply_delta": "machine", "semnet.delta_range": "semnet",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}
