package icn

import (
	"testing"
	"testing/quick"
)

func TestDigits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 4: 1, 5: 2, 16: 2, 17: 3, 32: 3, 64: 3}
	for n, want := range cases {
		if got := Digits(n); got != want {
			t.Errorf("Digits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestHops32Clusters(t *testing.T) {
	n := New(32, 8)
	if got := n.Hops(0, 0); got != 0 {
		t.Errorf("self hops = %d", got)
	}
	// Clusters differing in exactly one base-4 digit are one hop apart.
	if got := n.Hops(0, 3); got != 1 { // L digit
		t.Errorf("L-neighbour hops = %d", got)
	}
	if got := n.Hops(0, 12); got != 1 { // X digit (12 = 3<<2)
		t.Errorf("X-neighbour hops = %d", got)
	}
	if got := n.Hops(0, 16); got != 1 { // Y digit
		t.Errorf("Y-neighbour hops = %d", got)
	}
	// Paper: "32 clusters can be accommodated with at most three
	// intermediate hops".
	for from := 0; from < 32; from++ {
		for to := 0; to < 32; to++ {
			if h := n.Hops(from, to); h > 3 {
				t.Fatalf("hops(%d,%d) = %d > 3", from, to, h)
			}
		}
	}
}

// The route table must hold exactly what walking the digit-correction rule
// gives, including on arrays that do not fill their hypercube (6, 20),
// where the direct-delivery fallback makes routes shorter than the digit
// distance and not symmetric.
func TestRouteTableMatchesWalk(t *testing.T) {
	for _, n := range []int{1, 4, 6, 16, 20, 64} {
		top, digits := NewTopology(n), Digits(n)
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if got, want := top.NextHop(from, to), correctDigit(n, digits, from, to); got != want {
					t.Fatalf("%d clusters: NextHop(%d,%d) = %d, rule says %d", n, from, to, got, want)
				}
				walked := 0
				for at := from; at != to; at = correctDigit(n, digits, at, to) {
					if walked++; walked > digits {
						t.Fatalf("%d clusters: route %d->%d does not end", n, from, to)
					}
				}
				if got := top.Hops(from, to); got != walked {
					t.Fatalf("%d clusters: Hops(%d,%d) = %d, walked %d", n, from, to, got, walked)
				}
				if got := len(top.Route(from, to)); got != walked {
					t.Fatalf("%d clusters: Route(%d,%d) has %d hops, walked %d", n, from, to, got, walked)
				}
			}
		}
	}
}

func TestRouteCorrectsOneDigitPerHop(t *testing.T) {
	n := New(32, 8)
	for from := 0; from < 32; from++ {
		for to := 0; to < 32; to++ {
			route := n.Route(from, to)
			if len(route) != n.Hops(from, to) {
				t.Fatalf("route %d->%d length %d, hops %d", from, to, len(route), n.Hops(from, to))
			}
			at := from
			for _, next := range route {
				if n.Hops(at, next) != 1 {
					t.Fatalf("route %d->%d jumps %d->%d", from, to, at, next)
				}
				at = next
			}
			if at != to {
				t.Fatalf("route %d->%d ends at %d", from, to, at)
			}
		}
	}
}

func TestNextHopReducesDistanceQuick(t *testing.T) {
	n := New(32, 8)
	f := func(from, to uint8) bool {
		f32, t32 := int(from%32), int(to%32)
		if f32 == t32 {
			return n.NextHop(f32, t32) == t32
		}
		next := n.NextHop(f32, t32)
		return n.Hops(next, t32) == n.Hops(f32, t32)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSendRecvAndStats(t *testing.T) {
	n := New(4, 8) // single digit: all clusters adjacent
	msg := Message{Dest: 7, DestCluster: 2, Marker: 5, Value: 1.5, Level: 3}
	if !n.TrySend(0, msg) {
		t.Fatal("TrySend failed")
	}
	got, ok := n.TryRecv(2)
	if !ok || got.Dest != 7 || got.Marker != 5 || got.Hops != 1 {
		t.Fatalf("TryRecv = %+v, %v", got, ok)
	}
	sent, fwd, hops := n.Stats()
	if sent != 1 || fwd != 0 || hops != 1 {
		t.Fatalf("stats = %d,%d,%d", sent, fwd, hops)
	}
	n.ResetStats()
	if s, _, _ := n.Stats(); s != 0 {
		t.Fatal("ResetStats")
	}
}

func TestMultiHopRelay(t *testing.T) {
	n := New(32, 8)
	// 0 -> 31 differs in three digits; relay manually like the CUs do.
	msg := Message{DestCluster: 31}
	if !n.TrySend(0, msg) {
		t.Fatal("send")
	}
	at := n.NextHop(0, 31)
	for hops := 1; ; hops++ {
		m, ok := n.TryRecv(at)
		if !ok {
			t.Fatalf("no message at cluster %d", at)
		}
		if int(m.DestCluster) == at {
			if hops != 3 || m.Hops != 3 {
				t.Fatalf("delivered after %d hops (msg says %d), want 3", hops, m.Hops)
			}
			break
		}
		next := n.NextHop(at, int(m.DestCluster))
		if !n.TryForward(at, m) {
			t.Fatal("forward")
		}
		at = next
	}
	_, fwd, hops := n.Stats()
	if fwd != 2 || hops != 3 {
		t.Fatalf("fwd=%d hops=%d", fwd, hops)
	}
}

func TestTrySendBackpressure(t *testing.T) {
	n := New(2, 1)
	m := Message{DestCluster: 1}
	if !n.TrySend(0, m) {
		t.Fatal("first TrySend")
	}
	if n.TrySend(0, m) {
		t.Fatal("TrySend into a full mailbox must fail")
	}
	sent, _, hops := n.Stats()
	if sent != 1 || hops != 1 {
		t.Fatal("failed TrySend must not count")
	}
	if _, ok := n.TryRecv(1); !ok {
		t.Fatal("drain")
	}
	if !n.TryForward(0, m) {
		t.Fatal("TryForward after drain")
	}
}

func TestPending(t *testing.T) {
	n := New(4, 8)
	n.TrySend(0, Message{DestCluster: 1})
	n.TrySend(0, Message{DestCluster: 1})
	if n.Pending(1) != 2 {
		t.Fatalf("Pending = %d", n.Pending(1))
	}
}
