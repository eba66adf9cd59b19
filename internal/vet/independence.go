package vet

import (
	"repro/internal/machine"
)

// This file computes per-statement shared-memory footprints — the set
// of shared slots (globals, node-field classes, the allocator) each
// labeled atomic statement may read or write — and derives from them a
// sound statement-independence relation: two statements are independent
// when executing them from any state, by two distinct threads, in
// either order reaches the same state and neither order changes what
// the other can do. Independence is the raw material of the
// τ-confluence classification in confluence.go, which in turn drives
// the divergence-preserving partial-order reduction in
// machine.Options.Reduction.
//
// Slot model. The machine's shared state is the global vector and the
// heap. Globals get one slot each. Heap cells are abstracted per FIELD
// CLASS, not per cell: a statement touching field Next of any node
// touches the single "field Next" slot. That is coarse but sound — two
// accesses that could alias always map to the same slot — and it is
// exactly the right granularity for BBVL's one-destructive-shared-
// access discipline, where a statement performs at most one shared
// store. A ninth slot stands for the allocator itself (heap occupancy)
// when allocation order can be observed through exhaustion. Thread
// state (locals, the argument, the thread id, pc and status) is
// private and contributes nothing.
//
// Freshness. The footprint of a field access depends on whether the
// base pointer can be shared. A local that provably holds a pointer to
// a cell this thread allocated and has never published (stored into a
// global, into a field of a shared cell, CASed into a shared location,
// or returned) refers to memory no other thread can reach, so accesses
// through it are thread-private and leave no shared footprint. We track
// this with a per-method forward MUST-analysis over the statement CFG:
// fresh(l) holds at a point iff l is fresh along EVERY path there
// (meet = intersection). Publishing any fresh pointer kills ALL fresh
// locals, because the published cell's fields may reach other private
// cells; storing a fresh pointer into a field of a cell that is itself
// fresh stays confined and kills nothing. Reading a field of a fresh
// cell into a local does NOT make the destination fresh (the field may
// hold a shared pointer). Programs that free memory disable freshness
// entirely: a dangling pointer held by another thread can alias a
// reallocated "private" cell.
//
// The relation is validated dynamically by (*machine.Pilot).Independence
// (see the randomized property test): every pair declared independent
// is executed in both orders from every reachable pilot state and must
// commute exactly.

// footprint is the set of shared slots one statement may read and
// write. top marks a statement that must be assumed to conflict with
// everything (frees, allocs in freeing programs, malformed IR).
type footprint struct {
	reads, writes []bool
	top           bool
}

func newFootprint(nslots int) *footprint {
	return &footprint{reads: make([]bool, nslots), writes: make([]bool, nslots)}
}

func (fp *footprint) read(slot int) {
	if slot < 0 || slot >= len(fp.reads) {
		fp.top = true
		return
	}
	fp.reads[slot] = true
}

func (fp *footprint) write(slot int) {
	if slot < 0 || slot >= len(fp.writes) {
		fp.top = true
		return
	}
	fp.writes[slot] = true
}

// independent reports whether the two footprints commute: neither is
// top, and neither writes a slot the other touches.
func independent(a, b *footprint) bool {
	if a.top || b.top {
		return false
	}
	for i := range a.writes {
		if a.writes[i] && (b.reads[i] || b.writes[i]) {
			return false
		}
		if b.writes[i] && a.reads[i] {
			return false
		}
	}
	return true
}

// indepAnalysis carries the per-program footprint computation.
type indepAnalysis struct {
	prog     *machine.Program
	nglobals int
	nslots   int
	// hasFree disables freshness and tops every alloc/free statement:
	// reallocation makes "private" cells reachable through stale
	// pointers, and frees change what other threads' derefs do.
	hasFree bool
	// allocSafe holds when the heap provably never exhausts (static
	// alloc count bound ≤ HeapCap), so allocation always succeeds and
	// alloc∥alloc diamonds close under canonical renaming. When false,
	// allocs conflict with each other through the allocator slot.
	allocSafe bool
	// entryFresh[mi][si] is the converged must-fresh set at entry to
	// statement si of method mi; nil for statements the goto graph
	// cannot reach.
	entryFresh [][][]bool
	// fp[mi][si] is statement si's footprint.
	fp [][]*footprint
}

func newIndepAnalysis(p *machine.Program, threads, ops int) *indepAnalysis {
	ia := &indepAnalysis{
		prog:     p,
		nglobals: len(p.Globals.Names),
		nslots:   len(p.Globals.Names) + 9,
		hasFree:  programHasFree(p),
	}
	if !ia.hasFree {
		ia.allocSafe = allocNeverExhausts(p, threads, ops)
	}
	ia.entryFresh = make([][][]bool, len(p.Methods))
	ia.fp = make([][]*footprint, len(p.Methods))
	for mi := range p.Methods {
		ia.fixFresh(mi)
	}
	for mi := range p.Methods {
		ia.footprints(mi)
	}
	return ia
}

func (ia *indepAnalysis) fieldSlot(f machine.FieldSel) int { return ia.nglobals + int(f) }
func (ia *indepAnalysis) allocSlot() int                   { return ia.nglobals + 8 }

// slotName renders a slot for the report.
func (ia *indepAnalysis) slotName(slot int) string {
	switch {
	case slot < ia.nglobals:
		return ia.prog.Globals.Names[slot]
	case slot < ia.nglobals+8:
		return "field " + machine.FieldSel(slot-ia.nglobals).String()
	default:
		return "alloc"
	}
}

// freshEdge is one outgoing control-flow edge of a statement walk: the
// goto target and the fresh set flowing along it.
type freshEdge struct {
	target int
	fresh  []bool
}

// fixFresh runs the per-method freshness fixpoint. Entry to statement 0
// has no fresh locals (locals are zeroed at call); other statements
// start unreached and accumulate the meet (intersection) of the fresh
// sets arriving along their in-edges. The transfer function only ever
// shrinks sets, so the iteration terminates.
func (ia *indepAnalysis) fixFresh(mi int) {
	m := &ia.prog.Methods[mi]
	n := len(m.Body)
	entry := make([][]bool, n)
	ia.entryFresh[mi] = entry
	if n == 0 {
		return
	}
	entry[0] = make([]bool, ia.prog.NLocals)
	for changed := true; changed; {
		changed = false
		for si := 0; si < n; si++ {
			if entry[si] == nil {
				continue
			}
			f := cloneBools(entry[si])
			edges, _ := ia.walkFresh(m.Body[si].IR, f, nil, nil)
			for _, e := range edges {
				if e.target < 0 || e.target >= n {
					continue
				}
				if entry[e.target] == nil {
					entry[e.target] = cloneBools(e.fresh)
					changed = true
				} else if meetInto(entry[e.target], e.fresh) {
					changed = true
				}
			}
		}
	}
}

// footprints computes every statement's footprint with the converged
// entry fresh sets. Unreachable statements get the empty (no locals
// fresh) set — conservative, and they never execute anyway.
func (ia *indepAnalysis) footprints(mi int) {
	m := &ia.prog.Methods[mi]
	ia.fp[mi] = make([]*footprint, len(m.Body))
	for si := range m.Body {
		fp := newFootprint(ia.nslots)
		var f []bool
		if ia.entryFresh[mi][si] != nil {
			f = cloneBools(ia.entryFresh[mi][si])
		} else {
			f = make([]bool, ia.prog.NLocals)
		}
		ia.walkFresh(m.Body[si].IR, f, fp, nil)
		ia.fp[mi][si] = fp
	}
}

// walkFresh abstractly executes one instruction sequence: it threads
// the fresh set f through the instructions (mutating it in place),
// records shared reads and writes into fp when non-nil, and collects
// the goto edges. The second result reports whether any path falls
// through the end of the sequence (with f then holding the meet of the
// falling paths' fresh sets).
func (ia *indepAnalysis) walkFresh(seq []machine.Instr, f []bool, fp *footprint, edges []freshEdge) ([]freshEdge, bool) {
	for i := range seq {
		in := &seq[i]
		switch in.Op {
		case machine.IRAssign:
			ia.readOperand(&in.A, f, fp)
			srcFresh := ia.operandFresh(&in.A, f)
			ia.writeLoc(&in.LHS, f, fp)
			if in.LHS.Kind == machine.LocLocal {
				if in.LHS.Index >= 0 && in.LHS.Index < len(f) {
					f[in.LHS.Index] = srcFresh
				}
			} else if srcFresh && !ia.privateDest(&in.LHS, f) {
				killAll(f)
			}
		case machine.IRAlloc:
			ia.writeLoc(&in.LHS, f, fp)
			if fp != nil {
				if ia.hasFree {
					fp.top = true
				} else if !ia.allocSafe {
					fp.read(ia.allocSlot())
					fp.write(ia.allocSlot())
				}
			}
			if in.LHS.Kind == machine.LocLocal && in.LHS.Index >= 0 && in.LHS.Index < len(f) {
				f[in.LHS.Index] = !ia.hasFree
			}
		case machine.IRFree:
			if fp != nil {
				fp.top = true
			}
		case machine.IRCas:
			ia.readTarget(&in.LHS, f, fp)
			ia.readOperand(&in.A, f, fp)
			ia.readOperand(&in.B, f, fp)
			// The cas may succeed, publishing a fresh new value.
			if ia.operandFresh(&in.B, f) && !ia.privateDest(&in.LHS, f) {
				killAll(f)
			}
		case machine.IRGoto:
			edges = append(edges, freshEdge{target: in.Target, fresh: cloneBools(f)})
			return edges, false
		case machine.IRReturn:
			ia.readOperand(&in.A, f, fp)
			if ia.operandFresh(&in.A, f) {
				killAll(f)
			}
			return edges, false
		case machine.IRIfCmp:
			ia.readOperand(&in.A, f, fp)
			ia.readOperand(&in.B, f, fp)
			var thenFall, elseFall bool
			ft, fe := cloneBools(f), cloneBools(f)
			edges, thenFall = ia.walkFresh(in.Then, ft, fp, edges)
			edges, elseFall = ia.walkFresh(in.Else, fe, fp, edges)
			switch {
			case thenFall && elseFall:
				copy(f, ft)
				meetInto(f, fe)
			case thenFall:
				copy(f, ft)
			case elseFall:
				copy(f, fe)
			default:
				return edges, false
			}
		case machine.IRIfCas:
			ia.readTarget(&in.LHS, f, fp)
			ia.readOperand(&in.A, f, fp)
			ia.readOperand(&in.B, f, fp)
			var thenFall, elseFall bool
			ft, fe := cloneBools(f), cloneBools(f)
			// Publication happens only on the success branch; the
			// failure branch writes nothing and keeps freshness.
			if ia.operandFresh(&in.B, f) && !ia.privateDest(&in.LHS, f) {
				killAll(ft)
			}
			edges, thenFall = ia.walkFresh(in.Then, ft, fp, edges)
			edges, elseFall = ia.walkFresh(in.Else, fe, fp, edges)
			switch {
			case thenFall && elseFall:
				copy(f, ft)
				meetInto(f, fe)
			case thenFall:
				copy(f, ft)
			case elseFall:
				copy(f, fe)
			default:
				return edges, false
			}
		default:
			if fp != nil {
				fp.top = true
			}
		}
	}
	return edges, true
}

// operandFresh reports whether the operand's value is a provably
// private pointer (a fresh local).
func (ia *indepAnalysis) operandFresh(o *machine.Operand, f []bool) bool {
	return o.Kind == machine.OperandLoc && o.Loc.Kind == machine.LocLocal &&
		o.Loc.Index >= 0 && o.Loc.Index < len(f) && f[o.Loc.Index]
}

// privateDest reports whether a store to l lands in provably private
// memory: a field of a cell a fresh local points to.
func (ia *indepAnalysis) privateDest(l *machine.Loc, f []bool) bool {
	return l.Kind == machine.LocField && !l.BaseGlobal &&
		l.Index >= 0 && l.Index < len(f) && f[l.Index]
}

func (ia *indepAnalysis) readOperand(o *machine.Operand, f []bool, fp *footprint) {
	if o.Kind == machine.OperandLoc {
		ia.readLoc(&o.Loc, f, fp)
	}
}

// readLoc records the shared slots a load from l touches. A field read
// through a global base also reads the base pointer itself; one through
// a fresh local base touches nothing shared.
func (ia *indepAnalysis) readLoc(l *machine.Loc, f []bool, fp *footprint) {
	if fp == nil {
		return
	}
	switch l.Kind {
	case machine.LocGlobal:
		fp.read(l.Index)
	case machine.LocField:
		if l.BaseGlobal {
			fp.read(l.Index)
			fp.read(ia.fieldSlot(l.Field))
		} else if !(l.Index >= 0 && l.Index < len(f) && f[l.Index]) {
			fp.read(ia.fieldSlot(l.Field))
		}
	}
}

// writeLoc records the shared slots a store to l touches (a field
// store through a global base reads the base pointer).
func (ia *indepAnalysis) writeLoc(l *machine.Loc, f []bool, fp *footprint) {
	if fp == nil {
		return
	}
	switch l.Kind {
	case machine.LocGlobal:
		fp.write(l.Index)
	case machine.LocField:
		if l.BaseGlobal {
			fp.read(l.Index)
			fp.write(ia.fieldSlot(l.Field))
		} else if !(l.Index >= 0 && l.Index < len(f) && f[l.Index]) {
			fp.write(ia.fieldSlot(l.Field))
		}
	}
}

// readTarget records a cas target conservatively as both read and
// written (the cas always reads it and may write it).
func (ia *indepAnalysis) readTarget(l *machine.Loc, f []bool, fp *footprint) {
	ia.readLoc(l, f, fp)
	ia.writeLoc(l, f, fp)
}

func killAll(f []bool) {
	for i := range f {
		f[i] = false
	}
}

func cloneBools(f []bool) []bool {
	return append([]bool(nil), f...)
}

// meetInto intersects src into dst, reporting whether dst shrank.
func meetInto(dst, src []bool) bool {
	changed := false
	for i := range dst {
		if dst[i] && !src[i] {
			dst[i] = false
			changed = true
		}
	}
	return changed
}

// programHasFree reports whether any instruction of the program (init
// block included) frees memory.
func programHasFree(p *machine.Program) bool {
	if seqHasFree(p.InitIR) {
		return true
	}
	for mi := range p.Methods {
		for si := range p.Methods[mi].Body {
			if seqHasFree(p.Methods[mi].Body[si].IR) {
				return true
			}
		}
	}
	return false
}

func seqHasFree(seq []machine.Instr) bool {
	for i := range seq {
		in := &seq[i]
		if in.Op == machine.IRFree || seqHasFree(in.Then) || seqHasFree(in.Else) {
			return true
		}
	}
	return false
}

// allocNeverExhausts reports whether the heap provably cannot run out:
// the init block's allocations plus threads×ops times the worst-case
// allocation count of any single method call fit in HeapCap. A method
// whose goto graph can execute an alloc inside a cycle has no static
// bound and fails the check. When the check holds, every IRAlloc in
// every reachable state succeeds, its cell choice is a deterministic
// function of heap occupancy that no non-allocating statement can
// influence, and concurrent allocations commute up to the canonical
// cell renaming — so allocation needs no shared slot at all.
func allocNeverExhausts(p *machine.Program, threads, ops int) bool {
	total := countAllocs(p.InitIR) // init is branch-once, straight-line: static count bounds executions
	perCall := 0
	for mi := range p.Methods {
		n, ok := maxAllocsPerCall(&p.Methods[mi])
		if !ok {
			return false
		}
		if n > perCall {
			perCall = n
		}
	}
	total += threads * ops * perCall
	return total <= p.HeapCap
}

// countAllocs counts the IRAlloc instructions in a tree — an upper
// bound on the allocations one execution of the sequence performs,
// since straight-line interpretation runs each instruction at most
// once.
func countAllocs(seq []machine.Instr) int {
	n := 0
	for i := range seq {
		in := &seq[i]
		if in.Op == machine.IRAlloc {
			n++
		}
		n += countAllocs(in.Then) + countAllocs(in.Else)
	}
	return n
}

// maxAllocsPerCall bounds the allocations of one method call: the
// maximum total statement alloc count along any path through the goto
// graph from the entry. ok is false when an allocating statement sits
// in a cycle (no static bound).
func maxAllocsPerCall(m *machine.Method) (bound int, ok bool) {
	n := len(m.Body)
	if n == 0 {
		return 0, true
	}
	w := make([]int, n)
	adj := make([][]int, n)
	for si := range m.Body {
		w[si] = countAllocs(m.Body[si].IR)
		for _, tgt := range gotoTargets(m.Body[si].IR, nil) {
			if tgt >= 0 && tgt < n {
				adj[si] = append(adj[si], tgt)
			}
		}
	}
	comps := sccList(adj)
	compOf := make([]int, n)
	for ci, comp := range comps {
		for _, v := range comp {
			compOf[v] = ci
		}
	}
	// dp over the condensation; Tarjan emits components in reverse
	// topological order, so every successor component is ready.
	dp := make([]int, len(comps))
	for ci, comp := range comps {
		weight := 0
		cyclic := len(comp) > 1
		for _, v := range comp {
			weight += w[v]
			for _, t := range adj[v] {
				if t == v {
					cyclic = true
				}
			}
		}
		if cyclic && weight > 0 {
			return 0, false
		}
		best := 0
		for _, v := range comp {
			for _, t := range adj[v] {
				if compOf[t] != ci && dp[compOf[t]] > best {
					best = dp[compOf[t]]
				}
			}
		}
		dp[ci] = weight + best
	}
	return dp[compOf[0]], true
}
