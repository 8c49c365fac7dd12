package isa

import (
	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// Program optimizer: a deterministic compile-tier pass pipeline that
// rewrites a straight-line SNAP program into an equivalent one that the
// processing unit can overlap more aggressively (β-parallelism) at a
// lower marker-plane footprint. Four passes, in order:
//
//  1. Peephole folding — SET/FUNC sweeps fold into one SET, AND/OR of a
//     plane with itself into itself drops when value-neutral, FUNC on a
//     binary plane (no value registers) drops, and the rebuilt rule
//     table de-duplicates behaviorally identical PROPAGATE rules by
//     compiled-FSM fingerprint.
//  2. Dead-plane elimination — instructions whose written planes are
//     never read again (before a retrieval, COMM-END, or — when final
//     marker state is observable — the end of the program) are dropped.
//     Liveness is tracked per plane and per register file (status bits,
//     value registers, origin registers), because the ISA's writes are
//     not uniform: SET-MARKER rewrites status and values but leaves
//     origin registers readable through it, CLEAR-MARKER touches status
//     only, NOT-MARKER writes status without touching registers.
//  3. Marker-plane renaming — SSA-style re-allocation of write
//     lifetimes ("webs") onto planes, eliminating WAR/WAW false
//     dependencies inside an overlap region and packing webs onto fewer
//     planes (lower PlaneDemand admits more queries to the fusion
//     planner).
//  4. List scheduling — within each region (the span between
//     serializing instructions, which the PU drains on), instructions
//     reorder subject to true dependencies so that independent
//     PROPAGATEs become adjacent: the issue window only counts
//     immediately preceding independent instructions, so order decides
//     the overlap degree actually achieved.
//
// Equivalence contract. For an eligible program the optimized program
// produces bit-identical collections (nodes, values, origins, order)
// on both execution engines, and — with PreserveMarkers — bit-identical
// final marker state under the machine's observability model: status
// bits everywhere, value and origin registers wherever the status bit
// is set. Virtual time may only improve structurally: no pass adds
// instructions, renaming only deletes window flushes, and the scheduler
// reorders solely when it merges propagate windows the source order
// split (each merge deletes a whole barrier synchronization); when no
// window merges, the region keeps source order. Issue-slot alignment
// across clusters can still drift a run by a small fraction either
// way; programs with mergeable windows win far more than that.
// The one schedule-dependent observable in the
// ISA is the origin register of an equal-value delivery tie during
// propagation; the optimizer refuses programs whose propagate functions
// make such ties undetectable (exactly fusion's originSafeFn gate), and
// the machine's strict run mode detects the detectable ties at run time
// so callers can fall back to the unoptimized program.
//
// Ineligible programs — topology-mutating ones, programs with
// origin-unsafe propagate functions, or an opt level of zero — pass
// through unchanged (Changed reports false); Optimize never fails.

// Optimization levels.
const (
	// OptNone disables the optimizer: the program runs as written.
	OptNone = 0
	// OptBasic runs peephole folding and dead-plane elimination.
	OptBasic = 1
	// OptFull adds marker-plane renaming and overlap list scheduling.
	OptFull = 2
)

// OptConfig parameterizes Optimize.
type OptConfig struct {
	// Level selects the pass set: OptNone, OptBasic, or OptFull.
	// Out-of-range values clamp into [OptNone, OptFull].
	Level int
	// PreserveMarkers keeps the final marker state of every plane
	// bit-identical to the unoptimized program (library/simulator
	// profile: markers persist after Run and may be read back). When
	// false, only collections are observable (query-serving profile:
	// the engine clears dirtied planes between queries), which unlocks
	// end-of-program dead-write elimination and frees every plane's
	// final lifetime for renaming.
	PreserveMarkers bool
}

// Optimized is an optimization product: the rewritten program plus the
// metadata needed to map its results back onto the original
// instruction stream.
type Optimized struct {
	// Program is the optimized program. When Changed is false it is
	// the original *Program, untouched.
	Program *Program
	// OrigIndex maps optimized instruction indices to original ones,
	// so Collection.Instr can be remapped and callers keep indexing
	// collections against the program they wrote.
	OrigIndex []int
	// InstrsEliminated counts instructions removed by folding and
	// dead-plane elimination.
	InstrsEliminated int
	// PlanesFreed is the plane-demand reduction (complex plus binary
	// rows) achieved by renaming — capacity handed back to the fusion
	// planner.
	PlanesFreed int
	// Level and PreserveMarkers echo the effective configuration.
	Level           int
	PreserveMarkers bool

	changed bool
}

// Changed reports whether optimization rewrote the program at all.
// When false, Program is the original program and running the
// "optimized" form is pointless.
func (o *Optimized) Changed() bool { return o.changed }

// Optimize rewrites p under cfg. The returned product's Program is
// freshly built (own rule table) whenever Changed is true; p itself is
// never modified.
func Optimize(p *Program, cfg OptConfig) *Optimized {
	if cfg.Level > OptFull {
		cfg.Level = OptFull
	}
	id := &Optimized{Program: p, Level: cfg.Level, PreserveMarkers: cfg.PreserveMarkers}
	id.OrigIndex = identityIndex(len(p.Instrs))
	if cfg.Level <= OptNone || len(p.Instrs) == 0 {
		return id
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Mutating() || int(in.Op) >= NumOpcodes {
			// Replica pools refuse mutating programs anyway, and
			// MARKER-SET-COLOR writes node colors that searches read —
			// a hazard outside the marker dependence model.
			return id
		}
		if in.Op == OpPropagate && !originSafeFn(in.Fn, in.M2) {
			// A non-strict apply function can deliver one final value
			// under two origins depending on arrival order, which any
			// reordering perturbs undetectably. Same gate as fusion.
			return id
		}
	}

	stream := make([]wInstr, len(p.Instrs))
	for i := range p.Instrs {
		stream[i] = wInstr{in: p.Instrs[i], orig: i}
	}
	stream = peephole(stream)
	stream = deadPlanes(stream, cfg.PreserveMarkers)
	if cfg.Level >= OptFull {
		// Renaming never reorders and only deletes window conflicts, so
		// the PU's flush count can only shrink; the scheduler's own
		// merge gate (scheduleRegion) keeps source order unless the
		// reorder deletes a window outright. Between them, no O2 pass
		// ever adds a barrier synchronization.
		renamePlanes(stream, cfg.PreserveMarkers)
		stream = scheduleOverlap(stream)
	}

	// Would rebuilding the rule table merge tokens? Two distinct
	// tokens whose compiled FSMs share a fingerprint count as a real
	// change even when the instruction stream is untouched.
	dedups := false
	{
		byFP := make(map[uint64]rules.Token)
		for i := range stream {
			in := &stream[i].in
			if in.Op != OpPropagate {
				continue
			}
			fp := p.Rules.Rule(in.Rule).Fingerprint()
			if prev, ok := byFP[fp]; ok {
				if prev != in.Rule {
					dedups = true
					break
				}
			} else {
				byFP[fp] = in.Rule
			}
		}
	}

	// Unchanged stream (rule-token relabeling aside): hand back the
	// original program so callers skip the optimized path entirely.
	if !dedups && len(stream) == len(p.Instrs) {
		same := true
		for i := range stream {
			a, b := stream[i].in, p.Instrs[i]
			a.Rule, b.Rule = 0, 0
			if stream[i].orig != i || a != b {
				same = false
				break
			}
		}
		if same {
			return id
		}
	}

	out := &Optimized{
		Program:         &Program{Rules: rules.NewTable()},
		OrigIndex:       make([]int, len(stream)),
		Level:           cfg.Level,
		PreserveMarkers: cfg.PreserveMarkers,
		changed:         true,
	}
	// Rebuild the rule table with behavioral de-duplication: two
	// PROPAGATEs whose compiled FSMs share a fingerprint share one
	// token in the optimized table.
	byFP := make(map[uint64]rules.Token)
	for i := range stream {
		in := stream[i].in
		if in.Op == OpPropagate {
			rule := p.Rules.Rule(in.Rule)
			fp := rule.Fingerprint()
			tok, ok := byFP[fp]
			if !ok {
				var err error
				tok, err = out.Program.Rules.AddCustom(rule)
				if err != nil {
					// Table overflow cannot happen (the rebuilt table
					// is no larger than the original), but fail safe.
					return id
				}
				byFP[fp] = tok
			}
			in.Rule = tok
		}
		out.Program.Instrs = append(out.Program.Instrs, in)
		out.OrigIndex[i] = stream[i].orig
	}
	out.InstrsEliminated = len(p.Instrs) - len(stream)
	oc, ob := PlaneDemand(p)
	nc, nb := PlaneDemand(out.Program)
	if freed := (oc + ob) - (nc + nb); freed > 0 {
		out.PlanesFreed = freed
	}
	return out
}

func identityIndex(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// wInstr is one working instruction: the (mutable) instruction plus
// its index in the original program.
type wInstr struct {
	in   Instruction
	orig int
}

// ---------------------------------------------------------------------
// Pass 1: peephole folding.

// peephole applies local strength reductions to fixpoint. Every fold
// removes a full array sweep; none adds one.
func peephole(stream []wInstr) []wInstr {
	for changed := true; changed; {
		changed = false
		next := stream[:0]
		for i := 0; i < len(stream); i++ {
			w := stream[i]
			in := &w.in
			// FUNC-MARKER on a binary plane: no value registers to
			// apply the function to — a pure sweep charge.
			if in.Op == OpFuncMarker && !in.M1.IsComplex() {
				changed = true
				continue
			}
			// AND/OR of a plane with itself into itself: status bits
			// are unchanged; values and origins are rewritten in place
			// only when the destination is complex, and then the
			// rewrite is the identity exactly when the combining
			// function is NOP (v = nop(v, v), origin = own origin).
			if (in.Op == OpAndMarker || in.Op == OpOrMarker) &&
				in.M1 == in.M2 && in.M2 == in.M3 &&
				(!in.M3.IsComplex() || in.Fn == semnet.FuncNop) {
				changed = true
				continue
			}
			// SET m, v immediately followed by FUNC m, fn, op: SET
			// leaves every node set, so the FUNC sweep applies fn at
			// every node — fold into SET m, fn(v, op). Neither
			// instruction touches origin registers.
			if in.Op == OpSetMarker && i+1 < len(stream) {
				n := &stream[i+1].in
				if n.Op == OpFuncMarker && n.M1 == in.M1 && in.M1.IsComplex() {
					w.in.Value = n.Fn.Apply(in.Value, n.Value)
					next = append(next, w)
					i++
					changed = true
					continue
				}
			}
			next = append(next, w)
		}
		stream = next
	}
	return stream
}

// ---------------------------------------------------------------------
// Pass 2: dead-plane elimination.

// deadPlanes drops instructions whose writes can never be observed.
// Liveness runs backward over three per-plane facts — status bits,
// value registers, origin registers — because the ISA's full-array
// writes overwrite different subsets of them: SET-MARKER defines
// status and values but origin registers stay readable through it (a
// later COLLECT-NODE reports them), CLEAR-MARKER defines only status,
// AND/OR define status plus values at every surviving bit, NOT-MARKER
// defines status alone.
//
// Registers are only ever read where a status bit is set, so a CLEAR
// also ends the registers' liveness — unless some later instruction
// can set bits WITHOUT defining the register (NOT sets bits touching
// no registers; SET and AND/OR leave origins), re-exposing whatever
// was underneath. The expV/expO sets track, from the program end
// backward, whether such an exposing instruction exists; register
// liveness survives a CLEAR only on exposed planes. Serializing
// instructions (retrievals, barriers) are never removed. With preserve
// set, every plane is live at program end — but exposure still starts
// empty: the final state only shows registers under final set bits.
func deadPlanes(stream []wInstr, preserve bool) []wInstr {
	var sLive, vLive, oLive, expV, expO MarkerSet
	if preserve {
		sLive = MarkerSetFromBits(^uint64(0), ^uint64(0))
		vLive, oLive = sLive, sLive
	}
	addRead := func(m semnet.MarkerID, status, value, origin bool) {
		if status {
			sLive.Add(m)
		}
		if m.IsComplex() {
			if value {
				vLive.Add(m)
			}
			if origin {
				oLive.Add(m)
			}
		}
	}
	reads := func(in *Instruction) {
		switch in.Op {
		case OpPropagate:
			// The frontier scan reads M1's bits and values; merge
			// delivery reads M2's prior bits and values. Task origins
			// come from the source nodes themselves, never from M1's
			// origin registers.
			addRead(in.M1, true, true, false)
			addRead(in.M2, true, true, false)
		case OpAndMarker, OpOrMarker:
			regs := in.M3.IsComplex() // operand registers combine only then
			addRead(in.M1, true, regs, regs)
			addRead(in.M2, true, regs, regs)
		case OpNotMarker:
			addRead(in.M1, true, in.Cond != CondNone, false)
		case OpFuncMarker:
			addRead(in.M1, true, true, false)
		case OpCollectNode:
			addRead(in.M1, true, true, true)
		case OpCollectRelation, OpCollectColor:
			addRead(in.M1, true, false, false)
		}
	}
	complexLive := func(m semnet.MarkerID, value, origin bool) bool {
		if !m.IsComplex() {
			return false
		}
		return (value && vLive.Contains(m)) || (origin && oLive.Contains(m))
	}
	keep := make([]bool, len(stream))
	kept := 0
	for i := len(stream) - 1; i >= 0; i-- {
		in := &stream[i].in
		if in.Serializing() {
			keep[i] = true
			kept++
			reads(in)
			continue
		}
		dead := false
		switch in.Op {
		case OpSetMarker:
			dead = !sLive.Contains(in.M1) && !complexLive(in.M1, true, false)
		case OpClearMarker:
			dead = !sLive.Contains(in.M1)
		case OpNotMarker:
			dead = !sLive.Contains(in.M2)
		case OpAndMarker, OpOrMarker:
			dead = !sLive.Contains(in.M3) && !complexLive(in.M3, true, true)
		case OpSearchNode, OpSearchRelation, OpSearchColor:
			dead = !sLive.Contains(in.M1) && !complexLive(in.M1, true, true)
		case OpPropagate:
			dead = !sLive.Contains(in.M2) && !complexLive(in.M2, true, true)
		case OpFuncMarker:
			dead = !complexLive(in.M1, true, false)
		}
		if dead {
			continue
		}
		keep[i] = true
		kept++
		switch in.Op {
		case OpSetMarker:
			sLive.Remove(in.M1)
			vLive.Remove(in.M1)
			if in.M1.IsComplex() {
				expO.Add(in.M1) // sets every bit, origins left stale
			}
		case OpClearMarker:
			sLive.Remove(in.M1)
			if !expV.Contains(in.M1) {
				vLive.Remove(in.M1)
			}
			if !expO.Contains(in.M1) {
				oLive.Remove(in.M1)
			}
		case OpNotMarker:
			sLive.Remove(in.M2)
			if in.M2.IsComplex() {
				expV.Add(in.M2) // sets bits touching no registers
				expO.Add(in.M2)
			}
		case OpAndMarker, OpOrMarker:
			sLive.Remove(in.M3)
			// Values are rewritten only at RESULT-set bits; registers
			// under cleared bits keep their old content, so a later
			// exposing write (NOT) can still surface pre-AND values.
			if !expV.Contains(in.M3) {
				vLive.Remove(in.M3)
			}
			if in.M3.IsComplex() {
				expO.Add(in.M3) // surviving bits keep stale origins
			}
		}
		reads(in)
	}
	if kept == len(stream) {
		return stream
	}
	out := stream[:0]
	for i := range stream {
		if keep[i] {
			out = append(out, stream[i])
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Pass 3: marker-plane renaming.

// A web is one write lifetime of a plane: the chain from a full-status
// definition (SET, CLEAR, NOT destination, AND/OR destination) through
// every read and read-modify-write of that content, ending at the next
// full definition. The program-entry content of a plane forms an entry
// web with no defining instruction.
//
// Relocating a web onto another plane is the rename that removes
// WAR/WAW false dependencies and packs lifetimes. It is sound only
// when nothing observable depends on the register history the web's
// home plane would otherwise carry. The ISA reads value/origin
// registers only where status bits are set, so a web whose member
// instructions define the registers at every bit they can leave set is
// insulated from history:
//
//   - CLEAR-started webs gain bits only via SEARCH hits and PROPAGATE
//     deliveries, which write value and origin — fully insulated.
//   - SET-started webs define every value but leave origin registers;
//     insulated unless a member reads origins (COLLECT-NODE, or an
//     AND/OR operand feeding a complex destination).
//   - AND/OR-started webs likewise define values but not all origins.
//   - NOT-started webs set bits without touching registers at all;
//     insulated only if no member reads values or origins.
//   - Binary planes have no registers: every non-entry web is
//     insulated.
//
// A web may leave home only if every later web of the home plane is
// insulated (they would otherwise observe the content the web no
// longer deposits), and a plane accepts a guest only if every one of
// its own webs after the guest's lifetime is insulated, for the
// mirrored reason. With preserve set, the last web of every plane is
// additionally pinned home and both planes' final lifetimes must
// re-establish the observable end state from scratch (endInsulated).
//
// Webs are placed at region granularity — regions (spans between
// serializing instructions) never reorder, so region-disjoint
// lifetimes can share a plane without creating any new in-window
// conflict — greedily onto the lowest-numbered plane of the same class
// the program already uses, so packing can only shrink demand. The one
// exception runs the other way: a web that shares a region with
// another lifetime of its own plane is a live WAR/WAW window conflict,
// and when no used plane can absorb it, serving mode splits it onto a
// fresh plane — each split trades one plane of demand for one fewer
// overlap-window flush on every execution.
type web struct {
	plane        semnet.MarkerID
	target       semnet.MarkerID
	def          defKind
	r0, r1       int // region interval (inclusive)
	entry        bool
	insulated    bool
	endInsulated bool
	final        bool // last web of its home plane
}

// defKind classifies a web's defining kill, which decides what the
// definition leaves in a well-defined state.
type defKind uint8

const (
	defEntry defKind = iota // program-entry content: nothing defined
	defClear                // CLEAR: no bit survives the definition itself
	defSet                  // SET: status+values defined, origins stale
	defBool                 // AND/OR: status+values defined, origins partial
	defNot                  // NOT: status defined, registers untouched
)

// valueDefined reports whether every bit the web's definition can
// leave set carries a freshly written value register.
func (d defKind) valueDefined() bool {
	return d == defClear || d == defSet || d == defBool
}

// originDefined is the same question for origin registers.
func (d defKind) originDefined() bool { return d == defClear }

// planeRole identifies which marker operand of an instruction an
// access went through, so rewriting can target the right field.
type planeRole uint8

const (
	roleM1 planeRole = iota
	roleM2
	roleM3
	numRoles
)

// killRole reports the operand slot that fully (re)defines its plane's
// status row, if any, and the kind of definition.
func killRole(in *Instruction) (planeRole, defKind, bool) {
	switch in.Op {
	case OpSetMarker:
		return roleM1, defSet, true
	case OpClearMarker:
		return roleM1, defClear, true
	case OpNotMarker:
		return roleM2, defNot, true
	case OpAndMarker, OpOrMarker:
		return roleM3, defBool, true
	}
	return 0, defEntry, false
}

// accessRoles lists the operand slots that read or read-modify-write
// their plane (everything except the kill slot); -1 marks unused.
func accessRoles(in *Instruction) [2]int8 {
	switch in.Op {
	case OpSearchNode, OpSearchRelation, OpSearchColor, OpFuncMarker,
		OpCollectNode, OpCollectRelation, OpCollectColor, OpNotMarker:
		return [2]int8{int8(roleM1), -1}
	case OpPropagate, OpAndMarker, OpOrMarker:
		return [2]int8{int8(roleM1), int8(roleM2)}
	}
	return [2]int8{-1, -1}
}

func planeOf(in *Instruction, r planeRole) semnet.MarkerID {
	switch r {
	case roleM2:
		return in.M2
	case roleM3:
		return in.M3
	}
	return in.M1
}

func setPlane(in *Instruction, r planeRole, m semnet.MarkerID) {
	switch r {
	case roleM2:
		in.M2 = m
	case roleM3:
		in.M3 = m
	default:
		in.M1 = m
	}
}

// regionize assigns every instruction a region number: runs of
// non-serializing instructions share one, every serializing
// instruction gets its own. No pass moves an instruction across a
// region boundary, and the PU's overlap window never spans one (the
// boundary instruction drains it), so two lifetimes in different
// regions can never be interleaved.
func regionize(stream []wInstr) []int {
	regions := make([]int, len(stream))
	r := 0
	for i := range stream {
		if stream[i].in.Serializing() {
			r++
			regions[i] = r
			r++
		} else {
			regions[i] = r
		}
	}
	return regions
}

const maxRegion = int(^uint(0) >> 1)

// renamePlanes rewrites marker operands in place.
func renamePlanes(stream []wInstr, preserve bool) {
	regions := regionize(stream)

	// Build webs in one forward walk. webOf[i][role] is the web each
	// access belongs to; cur[plane] is the plane's open web.
	var webs []*web
	webOf := make([][numRoles]int32, len(stream))
	for i := range webOf {
		webOf[i] = [numRoles]int32{-1, -1, -1}
	}
	cur := make([]int32, semnet.NumMarkers)
	lastOf := make([]int32, semnet.NumMarkers)
	for m := range cur {
		cur[m], lastOf[m] = -1, -1
	}
	open := func(m semnet.MarkerID, i int, kind defKind) int32 {
		w := &web{plane: m, target: m, def: kind, r0: regions[i], r1: regions[i]}
		switch {
		case kind == defEntry:
			w.entry = true
			w.r0 = 0 // entry content is live from the program's start
		case !m.IsComplex():
			w.insulated, w.endInsulated = true, true // no registers
		case kind == defClear:
			w.insulated, w.endInsulated = true, true
		default:
			// SET/AND/OR: values defined everywhere a bit can be set,
			// origins stale — insulated until a member reads origins,
			// and the end state still exposes origins at set bits.
			// NOT: registers untouched — insulated until any register
			// read.
			w.insulated = true
		}
		webs = append(webs, w)
		id := int32(len(webs) - 1)
		cur[m], lastOf[m] = id, id
		return id
	}
	touch := func(m semnet.MarkerID, i int) int32 {
		id := cur[m]
		if id < 0 {
			id = open(m, i, defEntry)
		}
		if r := regions[i]; r > webs[id].r1 {
			webs[id].r1 = r
		}
		return id
	}
	for i := range stream {
		in := &stream[i].in
		// Reads and read-modify-writes extend the plane's open web.
		for _, rr := range accessRoles(in) {
			if rr < 0 {
				continue
			}
			role := planeRole(rr)
			m := planeOf(in, role)
			id := touch(m, i)
			webOf[i][role] = id
			w := webs[id]
			// Register-observing members de-insulate webs whose
			// definition left that register file stale.
			if m.IsComplex() && !w.entry {
				readsOrigin := in.Op == OpCollectNode ||
					((in.Op == OpAndMarker || in.Op == OpOrMarker) && in.M3.IsComplex())
				readsValue := readsOrigin || in.Op == OpFuncMarker ||
					in.Op == OpPropagate ||
					(in.Op == OpNotMarker && in.Cond != CondNone)
				if readsOrigin && !w.def.originDefined() {
					w.insulated = false
				}
				if readsValue && !w.def.valueDefined() {
					w.insulated = false
				}
			}
		}
		// A kill closes the old web and opens a new one.
		if role, kind, ok := killRole(in); ok {
			webOf[i][role] = open(planeOf(in, role), i, kind)
		}
	}

	perPlane := make([][]int32, semnet.NumMarkers)
	for id := int32(0); int(id) < len(webs); id++ {
		w := webs[id]
		w.final = lastOf[w.plane] == id
		perPlane[w.plane] = append(perPlane[w.plane], id)
	}
	// suffixOK: every web of the home plane from this one on (in
	// lifetime order) is insulated — the leave-home condition.
	suffixOK := make([]bool, len(webs))
	for _, ids := range perPlane {
		ok := true
		for k := len(ids) - 1; k >= 0; k-- {
			ok = ok && webs[ids[k]].insulated
			suffixOK[ids[k]] = ok
		}
	}
	// insulatedAfter: every web of q starting strictly after region r
	// is insulated — the host-side mirror (a guest changes what those
	// webs would read through their stale registers).
	insulatedAfter := func(q semnet.MarkerID, r int) bool {
		for _, id := range perPlane[q] {
			if w := webs[id]; w.r0 > r && !w.insulated {
				return false
			}
		}
		return true
	}
	// endStateSafe: with preserve, a plane's observable end state must
	// be re-established from scratch by its final lifetime before any
	// web may move onto or off of the plane.
	endStateSafe := func(q semnet.MarkerID) bool {
		if !preserve {
			return true
		}
		last := lastOf[q]
		return last >= 0 && webs[last].endInsulated
	}

	// Occupancy: every web starts at home; relocation moves its region
	// interval to the target plane.
	occ := make([][]int32, semnet.NumMarkers)
	for id := int32(0); int(id) < len(webs); id++ {
		occ[webs[id].plane] = append(occ[webs[id].plane], id)
	}
	free := func(q semnet.MarkerID, w *web, self int32) bool {
		for _, id := range occ[q] {
			if id == self {
				continue
			}
			o := webs[id]
			hi := o.r1
			if preserve && o.final {
				hi = maxRegion // pinned end state: no guests after it
			}
			if w.r0 <= hi && o.r0 <= w.r1 {
				return false
			}
		}
		return true
	}

	// Candidate targets: planes the program already uses, per class —
	// demand never grows. Webs relocate in lifetime order (interval
	// start, then home plane), which is stable across re-optimization:
	// running the allocator on its own output reproduces it.
	var used MarkerSet
	for m := semnet.MarkerID(0); m < semnet.NumMarkers; m++ {
		if len(perPlane[m]) > 0 {
			used.Add(m)
		}
	}
	order := make([]int32, 0, len(webs))
	for id := int32(0); int(id) < len(webs); id++ {
		order = append(order, id)
	}
	for i := 1; i < len(order); i++ { // insertion sort: tiny n, stable
		for j := i; j > 0; j-- {
			a, b := webs[order[j-1]], webs[order[j]]
			if a.r0 > b.r0 || (a.r0 == b.r0 && a.plane > b.plane) {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}
	relocate := func(id int32, q semnet.MarkerID) {
		w := webs[id]
		home := occ[w.plane][:0]
		for _, o := range occ[w.plane] {
			if o != id {
				home = append(home, o)
			}
		}
		occ[w.plane] = home
		occ[q] = append(occ[q], id)
		w.target = q
	}
	for _, id := range order {
		w := webs[id]
		if w.entry || !suffixOK[id] || !endStateSafe(w.plane) ||
			(preserve && w.final) {
			continue // pinned home
		}
		placed := false
		used.ForEach(func(q semnet.MarkerID) {
			if placed || q.IsComplex() != w.plane.IsComplex() {
				return
			}
			if q != w.plane &&
				(!endStateSafe(q) || !insulatedAfter(q, w.r1)) {
				return
			}
			if !free(q, w, id) {
				return
			}
			if q != w.plane {
				relocate(id, q)
			}
			placed = true
		})
		if placed || preserve || free(w.plane, w, id) {
			continue
		}
		// The web shares a region with another lifetime of its home
		// plane: a real WAR/WAW window conflict that no used plane can
		// absorb. Split it onto a fresh plane — worth the extra demand,
		// since every removed conflict removes an overlap-window flush.
		// Serving mode only: a guest on an untouched plane would break
		// a preserved final state, and the engine's dirty-mask clear
		// covers whatever the optimized program writes.
		for q := semnet.MarkerID(0); q < semnet.NumMarkers; q++ {
			if q.IsComplex() != w.plane.IsComplex() || used.Contains(q) {
				continue
			}
			if !free(q, w, id) {
				continue
			}
			relocate(id, q)
			used.Add(q) // later webs may pack onto it
			break
		}
	}

	// Rewrite operands through the web assignment.
	for i := range stream {
		in := &stream[i].in
		for role := planeRole(0); role < numRoles; role++ {
			if id := webOf[i][role]; id >= 0 {
				setPlane(in, role, webs[id].target)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Pass 4: overlap list scheduling.

// scheduleOverlap reorders each region so that independent PROPAGATEs
// become adjacent. Dependencies are the pairwise MarkerDisjoint
// condition on the (renamed) operands — exactly what the PU's issue
// window checks — so the reorder can only widen windows, never change
// plane contents. Instructions are levelized ASAP over the dependence
// DAG and emitted level by level, propagates before non-propagates,
// source order within each class: every level's propagates land as one
// contiguous run inside a single overlap window, issued early enough
// that the phase overlaps the level's scalar ops.
func scheduleOverlap(stream []wInstr) []wInstr {
	regions := regionize(stream)
	out := make([]wInstr, 0, len(stream))
	for lo := 0; lo < len(stream); {
		hi := lo
		for hi < len(stream) && regions[hi] == regions[lo] {
			hi++
		}
		if stream[lo].in.Serializing() || hi-lo <= 2 {
			out = append(out, stream[lo:hi]...)
		} else {
			out = append(out, scheduleRegion(stream[lo:hi])...)
		}
		lo = hi
	}
	return out
}

// maxScheduleRegion bounds the list scheduler's O(n²) levelization.
// Serving-sized queries sit orders of magnitude under it; a
// pathological multi-thousand-instruction region would pay whole
// seconds of compile time chasing window merges its dependence chains
// rarely allow, so such a region keeps source order instead.
const maxScheduleRegion = 512

func scheduleRegion(run []wInstr) []wInstr {
	n := len(run)
	if n > maxScheduleRegion {
		return run
	}
	level := make([]int, n)
	maxLevel := 0
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if !MarkerDisjoint(&run[i].in, &run[j].in) && level[i]+1 > level[j] {
				level[j] = level[i] + 1
			}
		}
		if level[j] > maxLevel {
			maxLevel = level[j]
		}
	}
	// Two instructions on one level never conflict (a conflict forces
	// the later one a level down), so any within-level order is valid.
	// Propagates go first: a pushed PROPAGATE stays pending in the PU's
	// window while later non-conflicting scalar ops execute, so issuing
	// the level's propagates before its scalars overlaps the propagation
	// phase with the scalar work instead of serializing behind it.
	out := make([]wInstr, 0, n)
	for l := 0; l <= maxLevel; l++ {
		for i := 0; i < n; i++ { // the level's propagates, adjacent
			if level[i] == l && run[i].in.Op == OpPropagate {
				out = append(out, run[i])
			}
		}
		for i := 0; i < n; i++ { // then non-propagates, source order
			if level[i] == l && run[i].in.Op != OpPropagate {
				out = append(out, run[i])
			}
		}
	}
	// Reordering is only worth its issue-slot perturbation (every
	// instruction a reorder delays starts its cluster work one broadcast
	// later) when it merges propagate windows the source order split: a
	// merge deletes a whole barrier synchronization and lets the merged
	// phases share their duration. No merge, no reorder.
	if regionWindows(out) >= regionWindows(run) {
		return run
	}
	return out
}

// regionWindows counts the propagate overlap windows a region would
// flush, replayed with the same conflict rule the PU applies.
func regionWindows(run []wInstr) int {
	flat := make([]Instruction, len(run))
	for i := range run {
		flat[i] = run[i].in
	}
	batches := propBatches(flat)
	seen := make(map[int]bool)
	for i := range flat {
		if batches[i] >= 0 {
			seen[batches[i]] = true
		}
	}
	return len(seen)
}

// ---------------------------------------------------------------------
// The no-worse guard.

// propBatches replays the PU's greedy overlap-window formation over a
// stream, at the default queue depth, and returns each instruction's
// window ordinal (-1 for instructions that never join the PROPAGATE
// batch): the machine's dispatch loop over the same Window.
func propBatches(instrs []Instruction) []int {
	out := make([]int, len(instrs))
	batch := 0
	var win Window
	flush := func() {
		if win.Len() > 0 {
			batch++
			win.Reset()
		}
	}
	for i := range instrs {
		in := &instrs[i]
		out[i] = -1
		if in.Op == OpPropagate {
			if win.Len() >= DefaultWindowDepth || win.Conflicts(in) {
				flush()
			}
			out[i] = batch
			win.Push(in)
			continue
		}
		if in.Serializing() || win.Conflicts(in) {
			flush()
		}
	}
	return out
}
