// Package icn implements SNAP-1's 4-ary hypercube interconnection
// network: a spanning-bus hypercube whose buses are replaced by four-port
// memories (the board-local L memory and the off-board X and Y memories).
//
// Cluster addresses are split into base-4 digits; clusters that differ in
// exactly one digit share a four-port memory and exchange messages in one
// 80 ns port-to-port transfer. Routing corrects one digit per hop, so an
// N-cluster array needs at most ⌈log₄N⌉ hops (three for 32 clusters).
// Messages are fixed-size marker activations; propagation rules live in
// the pre-downloaded microcode table, so a message carries only a
// single-byte rule token.
package icn

import (
	"fmt"
	"sync/atomic"

	"snap1/internal/mpmem"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// Message is one 64-bit marker activation message (Section III-B: "The
// length of the message is 64 b and includes the marker, value, function,
// destination address, first origin address, and propagation rule").
// SendTime and Level are simulation bookkeeping: the virtual timestamp for
// the receive-time rule and the propagation tier for the tiered
// synchronization protocol.
type Message struct {
	Marker semnet.MarkerID
	Value  float32
	Fn     semnet.FuncCode
	Dest   semnet.NodeID // destination node (global ID)
	Origin semnet.NodeID // first origin address, for binding
	Rule   rules.Token
	State  rules.State

	DestCluster uint8
	Level       uint16      // propagation tier (termination protocol)
	Hops        uint8       // accumulated hops so far
	SendTime    timing.Time // virtual time the message entered the ICN
}

// Digits reports the number of base-4 address digits needed for n
// clusters (the hypercube dimension count).
func Digits(n int) int {
	d := 0
	for c := 1; c < n; c *= 4 {
		d++
	}
	if d == 0 {
		d = 1
	}
	return d
}

// Topology is the spanning-bus hypercube's routing arithmetic as a
// standalone value: cluster count and one flat clusters×clusters route
// table holding, for every (from, dest) pair, the next hop and the hop
// count. It carries no buffers or statistics, so layers that only need
// to COST routes — the partition placement stage, the benchmark harness,
// the lockstep engine's per-message accounting — share the exact routes
// the live Network takes, without constructing mailboxes and without
// re-deriving a route per message. The table is immutable once built, so
// copies of a Topology share it.
type Topology struct {
	clusters int
	routes   []route // row = source cluster
}

// route is one (from, dest) entry of the table.
type route struct {
	next uint16 // neighbouring cluster one digit-correction closer to dest
	hops uint8  // port-to-port transfers along the whole route
}

// maxClusters is what route.next can address.
const maxClusters = 1 << 16

// NewTopology returns the routing arithmetic for an n-cluster array.
func NewTopology(n int) Topology {
	if n <= 0 {
		panic("icn: need at least one cluster")
	}
	if n > maxClusters {
		panic(fmt.Sprintf("icn: at most %d clusters", maxClusters))
	}
	digits := Digits(n)
	routes := make([]route, n*n)
	for from := 0; from < n; from++ {
		for dest := 0; dest < n; dest++ {
			r := &routes[from*n+dest]
			r.next = uint16(correctDigit(n, digits, from, dest))
			for at := from; at != dest; at = correctDigit(n, digits, at, dest) {
				r.hops++
			}
		}
	}
	return Topology{clusters: n, routes: routes}
}

// correctDigit is the routing rule the table is built from: correct the
// lowest differing base-4 address digit. When the array does not fill its
// hypercube (a cluster count that is not a power of four), a correction
// that would land on a nonexistent cluster falls through to direct
// delivery, modeling the incomplete backplane's extra wiring.
func correctDigit(clusters, digits, from, dest int) int {
	for d := 0; d < digits; d++ {
		shift := uint(2 * d)
		if (from>>shift)&3 != (dest>>shift)&3 {
			next := from&^(3<<shift) | dest&(3<<shift)
			if next >= clusters {
				return dest
			}
			return next
		}
	}
	return dest
}

// NextHop reports the neighbouring cluster one digit-correction closer to
// dest (lowest differing digit first), or dest itself when adjacent or
// when the incomplete-array fallback delivers directly.
func (t Topology) NextHop(from, dest int) int {
	next, _ := t.Path(from, dest)
	return next
}

// Hops reports the number of port-to-port transfers between two clusters
// along the route NextHop takes: the count of differing base-4 address
// digits, except where the incomplete-array fallback shortens the path.
func (t Topology) Hops(from, to int) int {
	_, hops := t.Path(from, to)
	return hops
}

// Path reports NextHop and Hops of one pair in a single table read, for
// callers that account every message (the lockstep engine).
func (t Topology) Path(from, dest int) (next, hops int) {
	r := t.routes[from*t.clusters+dest]
	return int(r.next), int(r.hops)
}

// Network is the array-wide interconnect: one inbound mailbox region per
// cluster plus routing arithmetic and traffic statistics.
type Network struct {
	Topology
	mailbox []*mpmem.Queue[Message]

	sent      atomic.Int64 // end-to-end messages injected
	forwarded atomic.Int64 // intermediate relays
	hopTotal  atomic.Int64 // total port-to-port transfers
}

// New returns a network for the given cluster count; each cluster's
// mailbox region buffers up to mailboxCap messages (sends beyond that
// are refused, modeling the bounded four-port buffering).
func New(clusters, mailboxCap int) *Network {
	if clusters <= 0 {
		panic("icn: need at least one cluster")
	}
	n := &Network{
		Topology: NewTopology(clusters),
		mailbox:  make([]*mpmem.Queue[Message], clusters),
	}
	for i := range n.mailbox {
		n.mailbox[i] = mpmem.NewQueue[Message](mailboxCap)
	}
	return n
}

// TrySend injects a new message at cluster from, enqueueing it in the
// next-hop cluster's mailbox. It never blocks: it reports false (with no
// state change) when that mailbox region is full, letting the sender
// service its own mailbox instead of deadlocking on mutually full buffers.
func (n *Network) TrySend(from int, m Message) bool {
	next := n.NextHop(from, int(m.DestCluster))
	m.Hops++
	if !n.mailbox[next].TryPut(m) {
		return false
	}
	n.sent.Add(1)
	n.hopTotal.Add(1)
	return true
}

// TryForward relays a transit message from an intermediate cluster toward
// its destination (the CU disassembles and relays incoming transit
// messages), with the same non-blocking contract as TrySend.
func (n *Network) TryForward(at int, m Message) bool {
	next := n.NextHop(at, int(m.DestCluster))
	m.Hops++
	if !n.mailbox[next].TryPut(m) {
		return false
	}
	n.forwarded.Add(1)
	n.hopTotal.Add(1)
	return true
}

// TryRecv polls cluster c's mailbox for the next message addressed to (or
// transiting) it, without blocking.
func (n *Network) TryRecv(c int) (Message, bool) { return n.mailbox[c].TryGet() }

// Pending reports the queue depth at cluster c's mailbox.
func (n *Network) Pending(c int) int { return n.mailbox[c].Len() }

// Stats reports injected messages, intermediate relays, and total
// port-to-port transfers since construction.
func (n *Network) Stats() (sent, forwarded, hops int64) {
	return n.sent.Load(), n.forwarded.Load(), n.hopTotal.Load()
}

// ResetStats zeroes the traffic counters (between experiment phases).
func (n *Network) ResetStats() {
	n.sent.Store(0)
	n.forwarded.Store(0)
	n.hopTotal.Store(0)
}
