package isa

// OptFull is the one optimization level a caller still names.
const OptFull = 2

// OptConfig parameterizes Optimize.
type OptConfig struct{ Level int }

// Optimized is what Optimize returns: the program as written.
type Optimized struct {
	// Program is the caller's program, untouched.
	Program *Program
	// OrigIndex, InstrsEliminated and PlanesFreed are always empty.
	OrigIndex        []int
	InstrsEliminated int
	PlanesFreed      int
}

// Changed reports false: nothing is ever rewritten.
func (o *Optimized) Changed() bool { return false }

// Optimize returns p as written. The SNAP-1 controller broadcasts a
// program exactly as the host wrote it; the only reordering is the
// machine's issue-time overlap of adjacent independent PROPAGATEs.
//
// Deprecated: kept only because benchmark/traced.go still names it; it
// goes when that caller does (ROADMAP item 1a).
func Optimize(p *Program, _ OptConfig) *Optimized { return &Optimized{Program: p} }
