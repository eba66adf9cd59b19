package vet

import (
	"fmt"
	"strings"

	"repro/internal/machine"
)

// analysis is the per-program state shared by the IR analyzers: the
// control-flow reachability of every statement and the interval
// fixpoint over globals, node fields and per-statement local
// environments.
type analysis struct {
	prog *machine.Program
	opts Options

	// reach[mi][si] marks statement si of method mi reachable from the
	// method entry (statement 0) through the static goto graph.
	reach [][]bool

	// entry[mi][si] is the joined interval environment of the local
	// registers at entry to statement si; locals are zeroed at every
	// call, so entry[mi][0] is all-{0}.
	entry [][][]interval

	// globals and fields accumulate every value the program can store in
	// a global variable / node field, flow-insensitively: any statement
	// of any thread may interleave between two statements of a method.
	globals []interval
	fields  [8]interval

	// argIv[mi] is the interval of method mi's argument domain.
	argIv []interval

	// returns accumulates every value any method can return; thread ret
	// registers hold 0 or a returned value, so {0} seeds it.
	returns interval

	// widened is set when the fixpoint failed to converge and every
	// accumulator was forced to top; value-sensitive findings are then
	// suppressed rather than guessed.
	widened bool
}

func newAnalysis(p *machine.Program, opts Options) *analysis {
	threads := opts.Threads
	if threads <= 0 {
		threads = 2
	}
	a := &analysis{prog: p, opts: opts}
	a.reach = make([][]bool, len(p.Methods))
	a.entry = make([][][]interval, len(p.Methods))
	a.argIv = make([]interval, len(p.Methods))
	for mi := range p.Methods {
		m := &p.Methods[mi]
		a.reach[mi] = reachableStmts(m)
		a.entry[mi] = make([][]interval, len(m.Body))
		if len(m.Args) == 0 {
			a.argIv[mi] = single(0)
		} else {
			ivl := single(m.Args[0])
			for _, v := range m.Args[1:] {
				ivl = ivl.join(single(v))
			}
			a.argIv[mi] = ivl
		}
	}
	// Globals and fields start at {0}: Go zero-initializes the shared
	// state before Init runs.
	a.globals = make([]interval, len(p.Globals.Names))
	for i := range a.globals {
		a.globals[i] = single(0)
	}
	for i := range a.fields {
		a.fields[i] = single(0)
	}
	a.returns = single(0)
	return a
}

// reachableStmts walks the static goto graph of one method from its
// entry statement.
func reachableStmts(m *machine.Method) []bool {
	reach := make([]bool, len(m.Body))
	if len(m.Body) == 0 {
		return reach
	}
	work := []int{0}
	reach[0] = true
	for len(work) > 0 {
		si := work[len(work)-1]
		work = work[:len(work)-1]
		for _, tgt := range gotoTargets(m.Body[si].IR, nil) {
			if tgt >= 0 && tgt < len(m.Body) && !reach[tgt] {
				reach[tgt] = true
				work = append(work, tgt)
			}
		}
	}
	return reach
}

// gotoTargets collects every IRGoto destination in an instruction tree.
func gotoTargets(seq []machine.Instr, out []int) []int {
	for i := range seq {
		in := &seq[i]
		if in.Op == machine.IRGoto {
			out = append(out, in.Target)
		}
		out = gotoTargets(in.Then, out)
		out = gotoTargets(in.Else, out)
	}
	return out
}

// env is the walker's value environment for one statement execution:
// flow-sensitive locals plus a statement-private refinement copy of the
// global accumulators (sound because statements are atomic — no other
// thread runs between two instructions of one statement).
type env struct {
	locals  []interval
	globals []interval
}

func (e *env) clone() *env {
	ne := &env{
		locals:  append([]interval(nil), e.locals...),
		globals: append([]interval(nil), e.globals...),
	}
	return ne
}

func joinEnvs(a, b *env) *env {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	for i := range a.locals {
		a.locals[i] = a.locals[i].join(b.locals[i])
	}
	for i := range a.globals {
		a.globals[i] = a.globals[i].join(b.globals[i])
	}
	return a
}

// visitor hooks the findings passes into the walker; nil during the
// fixpoint rounds.
type visitor interface {
	// atCmp is called at every IRIfCmp with the operand intervals and
	// the negation flag, before the branches are walked.
	atCmp(in *machine.Instr, a, b interval)
	// atStore is called for every stored value: assignment RHS, cas new
	// value and return value.
	atStore(in *machine.Instr, v interval)
}

// maxRounds caps the global fixpoint; on overrun every accumulator is
// widened to top and value-sensitive findings are suppressed.
const maxRounds = 100

// runIntervals computes the interval fixpoint: per-statement local
// environments and the global/field accumulators.
func (a *analysis) runIntervals() {
	p := a.prog
	// Seed the accumulators with the init block's writes.
	if len(p.InitIR) > 0 {
		e := &env{locals: nil, globals: append([]interval(nil), a.globals...)}
		a.walkSeq(-1, p.InitIR, e, nil)
	}
	for round := 0; ; round++ {
		if round >= maxRounds {
			a.widened = true
			for i := range a.globals {
				a.globals[i] = top()
			}
			for i := range a.fields {
				a.fields[i] = top()
			}
			return
		}
		changed := false
		globalsBefore := append([]interval(nil), a.globals...)
		fieldsBefore := a.fields
		for mi := range p.Methods {
			if a.fixMethod(mi) {
				changed = true
			}
		}
		for i := range a.globals {
			if a.globals[i] != globalsBefore[i] {
				changed = true
			}
		}
		if a.fields != fieldsBefore {
			changed = true
		}
		if !changed {
			return
		}
	}
}

// fixMethod runs one full sweep over a method's statements, reporting
// whether any statement entry environment grew. Every statement with a
// known entry is re-walked each round — not just those whose locals
// changed — because its derived values also depend on the global and
// field accumulators, which any statement of any method may have grown
// since the last walk. Entry environments are always non-nil once
// discovered (even with zero locals), so nil stays the "never reached"
// sentinel.
func (a *analysis) fixMethod(mi int) bool {
	m := &a.prog.Methods[mi]
	if len(m.Body) == 0 {
		return false
	}
	changed := false
	if a.entry[mi][0] == nil {
		zero := make([]interval, a.prog.NLocals)
		for i := range zero {
			zero[i] = single(0)
		}
		a.entry[mi][0] = zero
		changed = true
	}
	for si := range m.Body {
		if a.entry[mi][si] == nil {
			continue
		}
		e := &env{
			locals:  append([]interval(nil), a.entry[mi][si]...),
			globals: append([]interval(nil), a.globals...),
		}
		for _, t := range a.walkSeq(mi, m.Body[si].IR, e, nil) {
			if t.target < 0 || t.target >= len(m.Body) {
				continue
			}
			if a.entry[mi][t.target] == nil {
				cp := make([]interval, len(t.locals))
				copy(cp, t.locals)
				a.entry[mi][t.target] = cp
				changed = true
			} else if joinSlices(a.entry[mi][t.target], t.locals) {
				changed = true
			}
		}
	}
	return changed
}

// gotoEdge is one outgoing control-flow edge of a statement walk: the
// target statement and the local environment flowing along it.
type gotoEdge struct {
	target int
	locals []interval
}

// walkSeq abstractly executes one instruction sequence under e,
// returning the goto edges taken. A nil return environment means every
// path through the sequence transferred control. mi is the enclosing
// method index, or -1 for the init block.
func (a *analysis) walkSeq(mi int, seq []machine.Instr, e *env, vis visitor) []gotoEdge {
	edges, _ := a.walk(mi, seq, e, vis)
	return edges
}

// walk returns the collected goto edges and the fall-through environment
// (nil when every path terminated).
func (a *analysis) walk(mi int, seq []machine.Instr, e *env, vis visitor) ([]gotoEdge, *env) {
	var edges []gotoEdge
	for i := range seq {
		in := &seq[i]
		switch in.Op {
		case machine.IRAssign:
			v := a.evalOperand(mi, e, &in.A)
			if vis != nil {
				vis.atStore(in, v)
			}
			a.store(e, &in.LHS, v)
		case machine.IRAlloc:
			a.store(e, &in.LHS, iv(1, int32(a.prog.HeapCap)))
		case machine.IRFree:
			// Frees neither produce nor refine values.
		case machine.IRCas:
			nv := a.evalOperand(mi, e, &in.B)
			if vis != nil {
				vis.atStore(in, nv)
			}
			// The cas may or may not hit; the target afterwards holds
			// either its old value or the new one.
			old := a.load(e, &in.LHS)
			a.store(e, &in.LHS, old.join(nv))
		case machine.IRGoto:
			// Snapshot the locals: the caller's environment keeps being
			// mutated when this goto sits inside a branch.
			edges = append(edges, gotoEdge{target: in.Target, locals: append([]interval(nil), e.locals...)})
			return edges, nil
		case machine.IRReturn:
			rv := a.evalOperand(mi, e, &in.A)
			a.returns = a.returns.join(rv)
			if vis != nil {
				vis.atStore(in, rv)
			}
			return edges, nil
		case machine.IRIfCmp:
			av := a.evalOperand(mi, e, &in.A)
			bv := a.evalOperand(mi, e, &in.B)
			if vis != nil {
				vis.atCmp(in, av, bv)
			}
			verdict := compare(av, bv)
			thenTaken, elseTaken := true, true
			switch verdict {
			case cmpAlwaysEqual:
				if in.Negate {
					thenTaken = false
				} else {
					elseTaken = false
				}
			case cmpNeverEqual:
				if in.Negate {
					elseTaken = false
				} else {
					thenTaken = false
				}
			}
			var fall *env
			if thenTaken {
				te := e.clone()
				if !in.Negate {
					a.refineEq(te, &in.A, &in.B, av, bv)
				}
				es, f := a.walk(mi, in.Then, te, vis)
				edges = append(edges, es...)
				fall = joinEnvs(fall, f)
			}
			if elseTaken {
				ee := e.clone()
				if in.Negate {
					a.refineEq(ee, &in.A, &in.B, av, bv)
				}
				es, f := a.walk(mi, in.Else, ee, vis)
				edges = append(edges, es...)
				fall = joinEnvs(fall, f)
			}
			if fall == nil {
				return edges, nil
			}
			*e = *fall
		case machine.IRIfCas:
			nv := a.evalOperand(mi, e, &in.B)
			exp := a.evalOperand(mi, e, &in.A)
			if vis != nil {
				vis.atStore(in, nv)
			}
			old := a.load(e, &in.LHS)
			var fall *env
			// Success branch: the target held the expected value and now
			// holds the new one.
			if !old.disjoint(exp) {
				te := e.clone()
				a.store(te, &in.LHS, nv)
				es, f := a.walk(mi, in.Then, te, vis)
				edges = append(edges, es...)
				fall = joinEnvs(fall, f)
			}
			// Failure branch: the target is unchanged.
			ee := e.clone()
			es, f := a.walk(mi, in.Else, ee, vis)
			edges = append(edges, es...)
			fall = joinEnvs(fall, f)
			if fall == nil {
				return edges, nil
			}
			*e = *fall
		}
	}
	return edges, e
}

// refineEq meets both operands' locations with the other side's interval
// under an established equality.
func (a *analysis) refineEq(e *env, x, y *machine.Operand, xv, yv interval) {
	a.refineLoc(e, x, yv)
	a.refineLoc(e, y, xv)
}

func (a *analysis) refineLoc(e *env, o *machine.Operand, with interval) {
	if o.Kind != machine.OperandLoc {
		return
	}
	l := &o.Loc
	switch l.Kind {
	case machine.LocLocal:
		if l.Index < len(e.locals) {
			e.locals[l.Index] = e.locals[l.Index].meet(with)
		}
	case machine.LocGlobal:
		if l.Index < len(e.globals) {
			e.globals[l.Index] = e.globals[l.Index].meet(with)
		}
	}
}

func (a *analysis) evalOperand(mi int, e *env, o *machine.Operand) interval {
	switch o.Kind {
	case machine.OperandLit:
		return single(o.Lit)
	case machine.OperandArg:
		if mi >= 0 {
			return a.argIv[mi]
		}
		return single(0)
	case machine.OperandSelf:
		threads := a.opts.Threads
		if threads <= 0 {
			threads = 2
		}
		return iv(1, int32(threads))
	default:
		return a.load(e, &o.Loc)
	}
}

func (a *analysis) load(e *env, l *machine.Loc) interval {
	switch l.Kind {
	case machine.LocLocal:
		if l.Index < len(e.locals) {
			return e.locals[l.Index]
		}
		return top()
	case machine.LocGlobal:
		if l.Index < len(e.globals) {
			return e.globals[l.Index]
		}
		return top()
	default:
		if l.Field == machine.FieldMark {
			return iv(0, 1)
		}
		return a.fields[l.Field]
	}
}

// store writes v to the location: strong update in the statement-local
// environment, joined into the flow-insensitive accumulators.
func (a *analysis) store(e *env, l *machine.Loc, v interval) {
	switch l.Kind {
	case machine.LocLocal:
		if l.Index < len(e.locals) {
			e.locals[l.Index] = v
		}
	case machine.LocGlobal:
		if l.Index < len(e.globals) {
			e.globals[l.Index] = v
		}
		if l.Index < len(a.globals) {
			a.globals[l.Index] = a.globals[l.Index].join(v)
		}
	default:
		a.fields[l.Field] = a.fields[l.Field].join(v)
	}
}

// finding construction helpers.

func (a *analysis) finding(analyzer string, sev Severity, mi, si int, pos machine.Pos, msg string) Finding {
	f := Finding{
		Analyzer: analyzer,
		Severity: sev,
		Program:  a.prog.Name,
		Pos:      pos,
		Msg:      msg,
	}
	if mi >= 0 {
		f.Method = a.prog.Methods[mi].Name
		if si >= 0 {
			f.Label = a.prog.Methods[mi].Body[si].Label
		}
	}
	return f
}

// runUnreachable reports statements the static goto graph cannot reach
// from their method entry.
func (a *analysis) runUnreachable() []Finding {
	var out []Finding
	for mi := range a.prog.Methods {
		m := &a.prog.Methods[mi]
		for si := range m.Body {
			if !a.reach[mi][si] {
				out = append(out, a.finding("unreachable", Warning, mi, si, m.Body[si].Pos,
					fmt.Sprintf("statement %s is unreachable from the entry of method %s", m.Body[si].Label, m.Name)))
			}
		}
	}
	return out
}

// findingsVisitor runs the value-sensitive checks (deadguard, overflow)
// during a final walk with the converged environments.
type findingsVisitor struct {
	a    *analysis
	mi   int
	si   int
	mode string // "deadguard" | "overflow"
	out  []Finding
	seen map[*machine.Instr]bool // an instruction may be walked through several branch paths
}

func (v *findingsVisitor) atCmp(in *machine.Instr, av, bv interval) {
	if v.mode != "deadguard" || v.seen[in] {
		return
	}
	if av.isTop() || bv.isTop() {
		return
	}
	verdict := compare(av, bv)
	if verdict == cmpUnknown {
		return
	}
	v.seen[in] = true
	always := verdict == cmpAlwaysEqual
	if in.Negate {
		always = !always
	}
	branch := "false: its then-branch can never run"
	if always {
		branch = "true: its else-branch (or fallthrough) can never run"
	}
	v.out = append(v.out, v.a.finding("deadguard", Warning, v.mi, v.si, in.Pos,
		fmt.Sprintf("branch condition is always %s", branch)))
}

func (v *findingsVisitor) atStore(in *machine.Instr, val interval) {
	if v.mode != "overflow" || v.seen[in] {
		return
	}
	if !val.def || val.isTop() {
		return
	}
	if val.lo >= machine.EncodeMin && val.hi <= machine.EncodeMax {
		return
	}
	v.seen[in] = true
	what := "stored value"
	if in.Op == machine.IRReturn {
		what = "return value"
	}
	v.out = append(v.out, v.a.finding("overflow", Warning, v.mi, v.si, in.Pos,
		fmt.Sprintf("%s can be %s, outside the encodable range [%d, %d]; exploration would panic on state encoding",
			what, fmtRange(val), machine.EncodeMin, machine.EncodeMax)))
}

func fmtRange(v interval) string {
	if v.singleton() {
		return fmt.Sprintf("%d", v.lo)
	}
	return fmt.Sprintf("in [%d, %d]", v.lo, v.hi)
}

// runValueChecks walks every reachable statement with the converged
// environments in the given mode.
func (a *analysis) runValueChecks(mode string) []Finding {
	if a.widened {
		return nil
	}
	var out []Finding
	for mi := range a.prog.Methods {
		m := &a.prog.Methods[mi]
		for si := range m.Body {
			if !a.reach[mi][si] || a.entry[mi][si] == nil {
				continue
			}
			vis := &findingsVisitor{a: a, mi: mi, si: si, mode: mode, seen: map[*machine.Instr]bool{}}
			e := &env{
				locals:  append([]interval(nil), a.entry[mi][si]...),
				globals: append([]interval(nil), a.globals...),
			}
			a.walkSeq(mi, m.Body[si].IR, e, vis)
			out = append(out, vis.out...)
		}
	}
	return out
}

func (a *analysis) runDeadGuards() []Finding { return a.runValueChecks("deadguard") }

// runOverflow also checks the declared argument domains themselves.
func (a *analysis) runOverflow() []Finding {
	out := a.runValueChecks("overflow")
	for mi := range a.prog.Methods {
		m := &a.prog.Methods[mi]
		for _, arg := range m.Args {
			if arg < machine.EncodeMin || arg > machine.EncodeMax {
				out = append(out, a.finding("overflow", Warning, mi, -1, m.Pos,
					fmt.Sprintf("argument value %d of method %s is outside the encodable range [%d, %d]",
						arg, m.Name, machine.EncodeMin, machine.EncodeMax)))
				break
			}
		}
	}
	return out
}

// runSpecShape reports methods with no reachable return: such a method
// can never emit its visible return action, so no specification can
// match it and verification is vacuous.
func (a *analysis) runSpecShape() []Finding {
	var out []Finding
	for mi := range a.prog.Methods {
		m := &a.prog.Methods[mi]
		hasReturn := false
		for si := range m.Body {
			if a.reach[mi][si] && seqHasReturn(m.Body[si].IR) {
				hasReturn = true
				break
			}
		}
		if !hasReturn {
			out = append(out, a.finding("specshape", Error, mi, -1, m.Pos,
				fmt.Sprintf("method %s has no reachable return: it can never emit a visible return action, so verification against any specification is vacuous", m.Name)))
		}
	}
	return out
}

func seqHasReturn(seq []machine.Instr) bool {
	for i := range seq {
		in := &seq[i]
		if in.Op == machine.IRReturn {
			return true
		}
		if seqHasReturn(in.Then) || seqHasReturn(in.Else) {
			return true
		}
	}
	return false
}

// varUse accumulates how the IR touches each global.
type varUse struct {
	read, written bool
}

// runUnusedVars reports globals that are never used at all, and globals
// that are written but never read (their value can influence nothing).
func (a *analysis) runUnusedVars() []Finding {
	uses := make([]varUse, len(a.prog.Globals.Names))
	scan := func(p *machine.Program) {
		scanSeqUses(p.InitIR, uses, true)
		for mi := range p.Methods {
			for si := range p.Methods[mi].Body {
				scanSeqUses(p.Methods[mi].Body[si].IR, uses, false)
			}
		}
	}
	scan(a.prog)
	for _, comp := range a.opts.Companions {
		if comp != nil && hasIR(comp) && len(comp.Globals.Names) == len(uses) {
			scan(comp)
		}
	}
	var out []Finding
	for i, u := range uses {
		name := a.prog.Globals.Names[i]
		var pos machine.Pos
		if i < len(a.prog.Globals.Pos) {
			pos = a.prog.Globals.Pos[i]
		}
		switch {
		case !u.read && !u.written:
			out = append(out, a.finding("unusedvar", Warning, -1, -1, pos,
				fmt.Sprintf("global %s is never used", name)))
		case !u.read:
			out = append(out, a.finding("unusedvar", Warning, -1, -1, pos,
				fmt.Sprintf("global %s is write-only: it is assigned but its value is never read", name)))
		}
	}
	return out
}

// scanSeqUses records global reads and writes in an instruction tree.
// Init-block writes do not count as uses on their own: a global that is
// only ever initialized is still unused.
func scanSeqUses(seq []machine.Instr, uses []varUse, initBlock bool) {
	markLocRead := func(l *machine.Loc) {
		if l.Kind == machine.LocGlobal && l.Index < len(uses) {
			uses[l.Index].read = true
		}
		if l.Kind == machine.LocField && l.BaseGlobal && l.Index < len(uses) {
			uses[l.Index].read = true // reading the base pointer
		}
	}
	markOpRead := func(o *machine.Operand) {
		if o.Kind == machine.OperandLoc {
			markLocRead(&o.Loc)
		}
	}
	markLHSWrite := func(l *machine.Loc) {
		if l.Kind == machine.LocGlobal && l.Index < len(uses) {
			if !initBlock {
				uses[l.Index].written = true
			}
		}
		if l.Kind == machine.LocField && l.BaseGlobal && l.Index < len(uses) {
			uses[l.Index].read = true // writing through the pointer reads it
		}
	}
	for i := range seq {
		in := &seq[i]
		switch in.Op {
		case machine.IRAssign:
			markOpRead(&in.A)
			markLHSWrite(&in.LHS)
		case machine.IRAlloc:
			markLHSWrite(&in.LHS)
		case machine.IRFree:
			markLocRead(&in.LHS)
		case machine.IRCas, machine.IRIfCas:
			markOpRead(&in.A)
			markOpRead(&in.B)
			// A cas both reads and writes its target.
			markLocRead(&in.LHS)
			markLHSWrite(&in.LHS)
		case machine.IRReturn:
			markOpRead(&in.A)
		case machine.IRIfCmp:
			markOpRead(&in.A)
			markOpRead(&in.B)
		}
		scanSeqUses(in.Then, uses, initBlock)
		scanSeqUses(in.Else, uses, initBlock)
	}
}

// runTauCycle wraps the machine pilot probe as an analyzer.
func runTauCycle(p *machine.Program, opts Options) []Finding {
	cycles := machine.NewPilot(p, machine.PilotOptions{
		Threads:   opts.Threads,
		Ops:       opts.Ops,
		MaxStates: opts.MaxPilotStates,
	}).TauCycles()
	var out []Finding
	for _, c := range cycles {
		m := &p.Methods[c.MethodIndex]
		first := c.PCs[0]
		var pos machine.Pos
		if first < len(m.Body) {
			pos = m.Body[first].Pos
		}
		out = append(out, Finding{
			Analyzer: "taucycle",
			Severity: Warning,
			Program:  p.Name,
			Method:   c.Method,
			Label:    labelAt(m, first),
			Pos:      pos,
			Msg: fmt.Sprintf("method %s can loop through {%s} forever without a visible action while all other threads are frozen: the object is not lock-free (candidate ≈div divergence)",
				c.Method, strings.Join(c.Labels, ", ")),
		})
	}
	return out
}

func labelAt(m *machine.Method, pc int) string {
	if pc < len(m.Body) {
		return m.Body[pc].Label
	}
	return ""
}
