// Package semnet implements the SNAP-1 semantic network knowledge base:
// the logical network of colored nodes joined by typed, weighted relations,
// and the three physical per-cluster tables of the paper's Fig. 4 — the
// node table, the bit-packed marker status table, and the relation table.
package semnet

import "fmt"

// NodeID identifies a node in the global semantic network address space.
// The paper packs a 5-bit cluster number and local node number into the
// destination-node field; this reproduction keeps IDs logical and lets the
// partition function (internal/partition) assign physical placement.
type NodeID uint32

// InvalidNode is the zero-like sentinel for "no node".
const InvalidNode NodeID = ^NodeID(0)

// Color distinguishes the type or class of a concept node. The paper
// provides 256 colors, the type's range.
type Color uint8

// Capacity limits taken directly from the paper (Section II-B, Fig. 4).
const (
	NumComplexMarkers = 64 // M_C: value-carrying markers
	NumBinaryMarkers  = 64 // M_B: set-membership markers
	NumMarkers        = NumComplexMarkers + NumBinaryMarkers
	RelationSlots     = 16 // outgoing relation slots per node
	WordBits          = 32 // W: the paper's status-word width, the unit all timing charges
)

// HostWordBits is the width of the host words the marker status table is
// actually packed into. The simulated machine processes W=32 nodes per
// status-word operation and every "words processed" figure keeps charging
// that width (see Store.Words), but the host kernels sweep two simulated
// words per 64-bit load — an implementation detail invisible to the
// timing model.
const HostWordBits = 64

// ColorSubnode is the reserved color assigned by the fanout preprocessor
// to continuation subnodes; color searches never match it.
const ColorSubnode Color = 255

// RelType identifies a relation (link) type. The paper's 64K types
// (R = 64K) are the type's range.
type RelType uint16

// RelCont is the reserved relation type used by the fanout preprocessor to
// chain a node to its continuation subnodes. Propagation follows RelCont
// links transparently: no rule transition is consumed and no marker
// function is applied.
const RelCont RelType = 0xFFFF

// MarkerID names one of the 128 marker registers at every node.
// IDs 0..63 are complex markers (32-bit float value plus origin address);
// IDs 64..127 are binary markers (a single status bit).
type MarkerID uint8

// IsComplex reports whether m carries a value and origin register.
func (m MarkerID) IsComplex() bool { return m < NumComplexMarkers }

// Valid reports whether m names an existing marker register.
func (m MarkerID) Valid() bool { return m < NumMarkers }

// Binary returns the i'th binary marker (i in [0, NumBinaryMarkers)).
func Binary(i int) MarkerID { return MarkerID(NumComplexMarkers + i) }

// FuncCode selects the lightweight arithmetic or logical operation a
// marker performs along each propagation step (Section I-C: markers
// "carry a lightweight arithmetic or logical operation which is performed
// along each propagation step").
type FuncCode uint8

// Marker propagation functions. Apply combines the marker's current value
// with the weight of the traversed link.
const (
	FuncNop FuncCode = iota // keep value unchanged
	FuncAdd                 // value += link weight (path cost accumulation)
	FuncMin                 // value = min(value, link weight)
	FuncMax                 // value = max(value, link weight)
	FuncMul                 // value *= link weight (probability chaining)
	FuncDec                 // value -= link weight (budget-limited spread)
	numFuncCodes
)

// Valid reports whether f is a defined function code.
func (f FuncCode) Valid() bool { return f < numFuncCodes }

// Apply performs f on a marker value and a traversed link weight.
func (f FuncCode) Apply(value, weight float32) float32 {
	switch f {
	case FuncAdd:
		return value + weight
	case FuncMin:
		if weight < value {
			return weight
		}
		return value
	case FuncMax:
		if weight > value {
			return weight
		}
		return value
	case FuncMul:
		return value * weight
	case FuncDec:
		return value - weight
	default:
		return value
	}
}

// Merge combines two values arriving at the same node for the same marker
// so that the final network state is independent of message interleaving.
// Cost-accumulating functions keep the cheaper path; FuncMax keeps the
// larger value.
func (f FuncCode) Merge(a, b float32) float32 {
	switch f {
	case FuncMax:
		if a > b {
			return a
		}
		return b
	default:
		if a < b {
			return a
		}
		return b
	}
}

func (f FuncCode) String() string {
	switch f {
	case FuncNop:
		return "nop"
	case FuncAdd:
		return "add"
	case FuncMin:
		return "min"
	case FuncMax:
		return "max"
	case FuncMul:
		return "mul"
	case FuncDec:
		return "dec"
	default:
		return fmt.Sprintf("func(%d)", uint8(f))
	}
}

// Link is one outgoing relation-table entry: the relation type, the
// 32-bit floating point weight, and the destination node.
type Link struct {
	Rel    RelType
	Weight float32
	To     NodeID
}
