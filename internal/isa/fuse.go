package isa

import (
	"fmt"

	"snap1/internal/semnet"
)

// Query fusion: coalescing N mutually independent read-only programs
// into one fused program executed in a single machine run. Each
// sub-program's marker IDs are renamed onto disjoint rows of the
// 128-row status slab (complex markers onto complex rows, binary onto
// binary rows), the renamed instruction streams are interleaved so that
// corresponding propagation phases share one PU overlap window, and
// every retrieval instruction is tagged with its originating query so
// the engine can demultiplex the fused result. Instructions of two
// sub-programs touch disjoint planes (neither writes what the other
// reads or writes); each sub-program keeps its own COMM-END —
// fused programs never share one global barrier (Independent still
// treats COMM-END as serializing, so barrier semantics inside each
// sub-program are unchanged).

// ErrNotFusable wraps every fusion rejection; unwrap with
// errors.As(*FuseError) for the machine-readable reason.
var ErrNotFusable = fmt.Errorf("isa: not fusable")

// FuseError reports why a program or program set cannot be fused.
type FuseError struct {
	Reason string // "mutating" | "fn" | "planes" | "rules" | "count"
	Detail string
}

func (e *FuseError) Error() string {
	return fmt.Sprintf("%v: %s (%s)", ErrNotFusable, e.Detail, e.Reason)
}

func (e *FuseError) Unwrap() error { return ErrNotFusable }

// Fusion reject reasons, exported for counter labeling.
const (
	FuseReasonMutating = "mutating" // topology-mutating instruction
	FuseReasonFn       = "fn"       // origin-unsafe propagate function
	FuseReasonPlanes   = "planes"   // 128-row status slab exhausted
	FuseReasonRules    = "rules"    // merged rule table overflow
	FuseReasonCount    = "count"    // fewer than two programs
)

// originSafeFn reports whether a propagate with function fn writing
// complex destination marker m2 keeps origin attribution unambiguous
// under fused (reordered) scheduling. Final marker bits and values are
// schedule-independent for every FuncCode (the merge functions are
// commutative, associative and idempotent), but the origin register
// records the source whose task first delivered the winning value — and
// for non-strictly-monotone apply functions (MIN, MAX, MUL) one source
// can deliver the winning value under two different origins depending
// on arrival order, which fused scheduling perturbs. Strict functions
// (NOP, ADD, DEC) leave at most a same-value tie between distinct
// sources, which the machine detects at run time and reports for a
// per-query fallback. Binary destinations carry no origin register, so
// any function is safe there.
func originSafeFn(fn semnet.FuncCode, m2 semnet.MarkerID) bool {
	if !m2.IsComplex() {
		return true
	}
	switch fn {
	case semnet.FuncNop, semnet.FuncAdd, semnet.FuncDec:
		return true
	}
	return false
}

// Fusable reports whether p may participate in a fused run, and the
// reject reason when it may not. Plane exhaustion is a property of the
// whole fused set, not one program, and is reported by Fuse.
func Fusable(p *Program) (bool, string) {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Mutating() {
			return false, FuseReasonMutating
		}
		if in.Op == OpPropagate && !originSafeFn(in.Fn, in.M2) {
			return false, FuseReasonFn
		}
	}
	return true, ""
}

// FusedOrigin locates a fused instruction in its source program.
type FusedOrigin struct {
	Query int // index into the fused program set
	Index int // instruction index within that program
}

// Fused is a fusion product: the fused program plus the metadata needed
// to demultiplex its results.
type Fused struct {
	Program *Program
	Queries int

	origin  []FusedOrigin
	renames [][]semnet.MarkerID // [query][old marker] -> fused marker
}

// InstrOf locates fused instruction i in its source program.
func (f *Fused) InstrOf(i int) FusedOrigin { return f.origin[i] }

// MarkerOf translates query q's marker m to its fused plane. Markers
// the query never touches map to themselves.
func (f *Fused) MarkerOf(q int, m semnet.MarkerID) semnet.MarkerID {
	if q < 0 || q >= len(f.renames) || !m.Valid() {
		return m
	}
	return f.renames[q][m]
}

// Fuse renames each program's markers onto disjoint planes, interleaves
// the renamed streams phase-aligned, merges the rule tables, and
// returns the fused program with demux metadata. It
// fails with a *FuseError when any program is unfusable, the combined
// plane demand exceeds the 128-row slab, or the merged rule table
// overflows.
func Fuse(progs []*Program) (*Fused, error) {
	if len(progs) < 2 {
		return nil, &FuseError{Reason: FuseReasonCount, Detail: fmt.Sprintf("%d program(s)", len(progs))}
	}
	for q, p := range progs {
		if ok, reason := Fusable(p); !ok {
			return nil, &FuseError{Reason: reason, Detail: fmt.Sprintf("query %d", q)}
		}
	}

	// Plane allocation: walk each program's used markers in ascending
	// order, assigning the next free row of the matching class.
	f := &Fused{
		Program: NewProgram(),
		Queries: len(progs),
		renames: make([][]semnet.MarkerID, len(progs)),
	}
	nextComplex, nextBinary := 0, semnet.NumComplexMarkers
	for q, p := range progs {
		rename := make([]semnet.MarkerID, semnet.NumMarkers)
		for m := range rename {
			rename[m] = semnet.MarkerID(m) // untouched planes keep their ID
		}
		var full bool
		p.Markers().ForEach(func(m semnet.MarkerID) {
			if m.IsComplex() {
				if nextComplex >= semnet.NumComplexMarkers {
					full = true
					return
				}
				rename[m] = semnet.MarkerID(nextComplex)
				nextComplex++
			} else {
				if nextBinary >= semnet.NumMarkers {
					full = true
					return
				}
				rename[m] = semnet.MarkerID(nextBinary)
				nextBinary++
			}
		})
		if full {
			return nil, &FuseError{Reason: FuseReasonPlanes, Detail: fmt.Sprintf("status slab exhausted at query %d", q)}
		}
		f.renames[q] = rename
	}

	// Phase-aligned interleave. Each program is a sequence of segments:
	// a (possibly empty) run of non-serializing instructions followed by
	// one serializing instruction. Round r emits every program's r'th
	// run back to back — putting all corresponding PROPAGATEs into one
	// shared overlap window, since the renamed planes are disjoint —
	// then every program's r'th serializer, so the first barrier of the
	// round drains the shared phase and each sub-program still executes
	// its own COMM-END and retrievals.
	cursors := make([]int, len(progs))
	emit := func(q, idx int) error {
		p := progs[q]
		in := p.Instrs[idx] // copy before renaming
		rename := f.renames[q]
		switch in.Op {
		case OpPropagate:
			in.M1, in.M2 = rename[in.M1], rename[in.M2]
			tok, err := f.Program.Rules.AddCustom(p.Rules.Rule(in.Rule))
			if err != nil {
				return &FuseError{Reason: FuseReasonRules, Detail: err.Error()}
			}
			in.Rule = tok
		case OpAndMarker, OpOrMarker:
			in.M1, in.M2, in.M3 = rename[in.M1], rename[in.M2], rename[in.M3]
		case OpNotMarker:
			in.M1, in.M2 = rename[in.M1], rename[in.M2]
		case OpCommEnd:
			// no marker operands
		default:
			in.M1 = rename[in.M1]
		}
		f.Program.Instrs = append(f.Program.Instrs, in)
		f.origin = append(f.origin, FusedOrigin{Query: q, Index: idx})
		return nil
	}
	for {
		done := true
		// Non-serializing runs of this round.
		for q, p := range progs {
			for cursors[q] < len(p.Instrs) && !p.Instrs[cursors[q]].Serializing() {
				if err := emit(q, cursors[q]); err != nil {
					return nil, err
				}
				cursors[q]++
			}
			if cursors[q] < len(p.Instrs) {
				done = false
			}
		}
		if done {
			break
		}
		// One serializing instruction per program.
		for q, p := range progs {
			if cursors[q] < len(p.Instrs) && p.Instrs[cursors[q]].Serializing() {
				if err := emit(q, cursors[q]); err != nil {
					return nil, err
				}
				cursors[q]++
			}
		}
	}

	return f, nil
}
