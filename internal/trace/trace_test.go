package trace

import (
	"strings"
	"testing"

	"snap1/internal/barrier"
	"snap1/internal/isa"
	"snap1/internal/timing"
)

func sample() *Profile {
	p := &Profile{}
	p.Record(isa.OpPropagate, 100*timing.Microsecond)
	p.Record(isa.OpPropagate, 300*timing.Microsecond)
	p.Record(isa.OpSetMarker, 50*timing.Microsecond)
	p.Record(isa.OpAndMarker, 50*timing.Microsecond)
	p.AddBarrier(barrier.Stats{Messages: 10, Levels: 2, PerLevel: []int64{4, 6}})
	p.AddBarrier(barrier.Stats{Messages: 40, Levels: 3, PerLevel: []int64{10, 20, 10}})
	p.Overhead = Overhead{
		Broadcast:       1 * timing.Microsecond,
		Communication:   2 * timing.Microsecond,
		Synchronization: 3 * timing.Microsecond,
		Collection:      4 * timing.Microsecond,
	}
	return p
}

func TestRecordAndShares(t *testing.T) {
	p := sample()
	if p.TotalInstrs() != 4 {
		t.Fatalf("TotalInstrs = %d", p.TotalInstrs())
	}
	if p.TotalTime() != 500*timing.Microsecond {
		t.Fatalf("TotalTime = %v", p.TotalTime())
	}
	cf, tf := p.GroupShare(isa.GroupPropagate)
	if cf != 0.5 || tf != 0.8 {
		t.Fatalf("propagate shares = %v, %v", cf, tf)
	}
	if p.OpCount[isa.OpPropagate] != 2 {
		t.Fatal("op count")
	}
}

func TestBarrierSeries(t *testing.T) {
	p := sample()
	series := p.MessagesPerBarrier()
	if len(series) != 2 || series[0] != 10 || series[1] != 40 {
		t.Fatalf("series = %v", series)
	}
	if p.MeanMessagesPerBarrier() != 25 {
		t.Fatalf("mean = %v", p.MeanMessagesPerBarrier())
	}
	if p.PropMessages != 50 {
		t.Fatalf("PropMessages = %d", p.PropMessages)
	}
	if p.PropMaxDepth != 3 {
		t.Fatalf("PropMaxDepth = %d", p.PropMaxDepth)
	}
}

func TestEmptyProfileSafe(t *testing.T) {
	p := &Profile{}
	if p.MeanMessagesPerBarrier() != 0 {
		t.Error("empty mean")
	}
	cf, tf := p.GroupShare(isa.GroupPropagate)
	if cf != 0 || tf != 0 {
		t.Error("empty shares")
	}
	if p.Overhead.Total() != 0 {
		t.Error("empty overhead")
	}
	if p.MUBusySkew() != 0 || p.CriticalBusyShare() != 0 {
		t.Error("empty load summary")
	}
}

// A merged profile's load ratios weigh each run by its busy time and
// phase span: the ratio of the sums, not the mean of the ratios.
func TestLoadSummaryMerges(t *testing.T) {
	a := &Profile{MUBusyMax: 3, MUBusyMean: 2, CriticalBusy: 1, CriticalSpan: 4}
	b := &Profile{MUBusyMax: 9, MUBusyMean: 8, CriticalBusy: 5, CriticalSpan: 6}
	if a.MUBusySkew() != 1.5 || a.CriticalBusyShare() != 0.25 {
		t.Fatalf("skew %v, share %v", a.MUBusySkew(), a.CriticalBusyShare())
	}
	a.Merge(b)
	if a.MUBusySkew() != 1.2 || a.CriticalBusyShare() != 0.6 {
		t.Fatalf("merged skew %v, share %v; want 1.2, 0.6", a.MUBusySkew(), a.CriticalBusyShare())
	}
}

func TestMerge(t *testing.T) {
	a, b := sample(), sample()
	a.Merge(b)
	if a.TotalInstrs() != 8 || a.TotalTime() != timing.Millisecond {
		t.Fatal("merged counts")
	}
	if len(a.Barriers) != 4 || a.PropMessages != 100 {
		t.Fatal("merged barriers")
	}
	if a.Overhead.Total() != 20*timing.Microsecond {
		t.Fatal("merged overheads")
	}
	a.Merge(nil) // must not panic
	if a.TotalInstrs() != 8 {
		t.Fatal("nil merge changed state")
	}
}

func TestString(t *testing.T) {
	p := sample()
	p.Elapsed = timing.Millisecond
	s := p.String()
	for _, want := range []string{"propagate", "overhead", "barriers", "MU-busy skew"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
