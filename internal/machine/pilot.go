package machine

import (
	"fmt"
	"slices"
	"sort"
)

// This file implements the pilot: a small instance of a program whose
// reachable states are collected once, breadth-first, and then shared
// by the dynamic cross-checks vet relies on — the τ-cycle probe behind
// the "taucycle" analyzer and the reduction's acyclicity safety net
// (TauCycles), the lock-region check (MutualExclusion, reduce.go) and
// the independence oracle of the property tests (Independence,
// reduce.go).
//
// A τ-cycle is a cycle of internal statements a thread can traverse
// solo — with every other thread frozen — without performing a visible
// call or return. Such a cycle is a real divergence of the bounded
// instance (the frozen schedule is one of the explorer's interleavings),
// so any method containing one cannot be lock-free: the scheduler can
// starve the object by running only the spinning thread. The converse
// does not hold — the probe is a cheap sound under-approximation, not a
// replacement for the ≈div check.
//
// The pilot works on any Program, including hand-coded registry
// algorithms whose statements are opaque Go closures: it never inspects
// statement bodies, only executes them the way the explorer does. The
// τ-cycle probe runs a memoized depth-first solo walk from every
// running thread of every pilot state. CAS-retry loops terminate solo
// (the CAS succeeds when nobody interferes), so lock-free algorithms
// are never flagged; spins on another thread's state (a hazard-pointer
// wait, a lock acquisition) diverge solo and are.

// PilotOptions bounds the pilot.
type PilotOptions struct {
	// Threads and Ops size the pilot instance; 0 defaults to 2.
	Threads int
	Ops     int
	// MaxStates bounds the breadth-first reachable-state collection;
	// 0 defaults to 60000. Hitting the bound truncates coverage (fewer
	// pilot states), never correctness.
	MaxStates int
	// MaxViews bounds the total number of distinct solo-run views the
	// depth-first walks may visit; 0 defaults to 200000.
	MaxViews int
}

// TauCycle is one detected solo τ-cycle: a set of statement indices of
// one method through which a thread can loop forever without a visible
// action while every other thread is suspended.
type TauCycle struct {
	// Method is the containing method's name; MethodIndex its index.
	Method      string
	MethodIndex int
	// PCs are the statement indices on the cycle, ascending; Labels the
	// corresponding statement labels.
	PCs    []int
	Labels []string
}

// PilotError reports a program the pilot could not explore at all: its
// Init faulted, or its schema is too large for the pilot's scratch
// states. MutualExclusion and Independence return it, so a claim is
// never accepted on an empty state set.
type PilotError struct {
	Program string
	Reason  string
}

// Error implements the error interface.
func (e *PilotError) Error() string {
	return fmt.Sprintf("machine: %s: pilot: %s", e.Program, e.Reason)
}

// Pilot is the bounded reachable-state set of a small instance of a
// program, in breadth-first order, together with the checks that run
// over it. Build it once with NewPilot and query it as often as needed.
type Pilot struct {
	prog *Program
	opt  PilotOptions
	// keys holds the canonical states, encodeRaw form, in BFS order;
	// running counts their running threads, which bounds the number of
	// distinct solo-walk views.
	keys    [][]byte
	running int
	// err records why no state could be collected: the program failed
	// Validate, its schema is oversized, or its Init faulted.
	err error
}

// NewPilot collects the reachable states of the pilot instance of p:
// breadth-first from the initial state, canonicalized, at most
// opt.MaxStates of them. A statement that faults while a state is
// expanded is treated as blocked there (the state is expanded only
// partially); a program that cannot be explored at all is recorded and
// reported by the checks.
func NewPilot(p *Program, opt PilotOptions) *Pilot {
	if opt.Threads <= 0 {
		opt.Threads = 2
	}
	if opt.Ops <= 0 {
		opt.Ops = 2
	}
	if opt.MaxStates <= 0 {
		opt.MaxStates = 60000
	}
	if opt.MaxViews <= 0 {
		opt.MaxViews = 200000
	}
	pl := &Pilot{prog: p, opt: opt}
	if err := p.Validate(); err != nil {
		pl.err = err
		return pl
	}
	// The raw encoding has no value-range limit; the size guard only
	// keeps degenerate (fuzzed) programs from allocating absurd scratch
	// states.
	if p.HeapCap > 255 || p.NLocals > 255 || len(p.Globals.Names) > 255 {
		pl.err = &PilotError{Program: p.Name, Reason: "heap, locals or globals exceed 255 entries"}
		return pl
	}
	b := &pilotBFS{pilot: pl, x: newExpander(p, opt.Threads), ids: make(map[string]struct{})}
	if err := b.start(); err != nil {
		pl.err = err
		return pl
	}
	cur := newScratchState(p, opt.Threads)
	for si := 0; si < len(pl.keys); si++ {
		decodeRaw(pl.keys[si], cur)
		for t := range cur.th {
			if cur.th[t].status == statusRunning {
				pl.running++
			}
		}
		b.expand(cur)
	}
	return pl
}

// pilotBFS is the interning scratch of one NewPilot run.
type pilotBFS struct {
	pilot *Pilot
	x     expander
	ids   map[string]struct{}
	buf   []byte
}

// start interns the initial state, turning a fault in program Init into
// a PilotError.
func (b *pilotBFS) start() (err error) {
	pl := b.pilot
	defer func() {
		if r := recover(); r != nil {
			err = &PilotError{Program: pl.prog.Name, Reason: fmt.Sprintf("initial state faulted: %v", r)}
		}
	}()
	b.intern(initialState(pl.prog, Options{Threads: pl.opt.Threads, Ops: pl.opt.Ops}))
	return nil
}

// expand enumerates cur's successors into the state set. A statement
// panic stops the expansion of this state only: faulting statements
// are what vet warns about, so the pilot keeps going without them.
func (b *pilotBFS) expand(cur *state) {
	defer func() { _ = recover() }()
	b.x.expandState(cur, b)
}

// emit implements transSink: canonicalize and intern the successor,
// dropping it once the state budget is exhausted.
func (b *pilotBFS) emit(x *expander, tr symTrans) bool {
	if len(b.pilot.keys) < b.pilot.opt.MaxStates {
		b.intern(x.succ)
	}
	return true
}

func (b *pilotBFS) intern(st *state) {
	b.x.canon.run(st)
	b.buf = encodeRaw(b.buf[:0], st, -1)
	if _, ok := b.ids[string(b.buf)]; ok {
		return
	}
	key := slices.Clone(b.buf)
	b.ids[bytesString(key)] = struct{}{}
	b.pilot.keys = append(b.pilot.keys, key)
}

// TauCycles probes the pilot states for solo τ-cycles and returns them
// sorted by (method index, first statement index). It returns nil when
// the pilot holds no states.
func (pl *Pilot) TauCycles() []TauCycle {
	if pl.err != nil {
		return nil
	}
	w := &soloWalk{
		prog:  pl.prog,
		x:     newExpander(pl.prog, pl.opt.Threads),
		max:   pl.opt.MaxViews,
		seen:  make(map[string]int32, min(pl.running, pl.opt.MaxViews)),
		found: make(map[string]struct{}),
	}
	w.run(pl.keys)
	return w.collect()
}

// soloWalk carries the τ-cycle probe's memo and scratch.
type soloWalk struct {
	prog *Program
	x    expander // work state, canonicalizer and outcome buffer
	max  int
	buf  []byte

	// A "view" is the full canonical state plus the walking thread's
	// index; its future under a solo schedule depends on nothing else,
	// so the memo is sound across pilot states. seen maps a view's
	// encodeRaw form to its walk-stack index while it is on the stack
	// (gray), and to -1 once it is exhausted (black).
	seen  map[string]int32
	stack []int // pc per stack entry; the method is fixed during a walk
	views int

	// succs holds the materialized successors of every view on the
	// stack; free recycles successor states once their walks return.
	succs []*state
	free  []*state

	found  map[string]struct{} // exact (method, pc set) keys
	cycles []TauCycle          // de-duplicated, unlabelled
	pcs    []int               // record's scratch: sorted cycle pcs
	key    []byte              // record's scratch: the dedup key
}

// run walks every running thread of every pilot state, in BFS order,
// until the view budget is spent. A statement that faults during a walk
// is treated as blocked; any other failure aborts the probe with the
// cycles found so far — vet is advisory and must never take down the
// caller.
func (w *soloWalk) run(keys [][]byte) {
	defer func() { _ = recover() }()
	cur := newScratchState(w.prog, len(w.x.work.th))
	for _, key := range keys {
		if w.views >= w.max {
			return
		}
		decodeRaw(key, cur)
		for t := range cur.th {
			if cur.th[t].status == statusRunning && w.views < w.max {
				// The view key is the state key with its leading
				// one-byte view field (-1) replaced by t.
				w.buf = append(putVarint(w.buf[:0], int32(t)), key[1:]...)
				w.stack = w.stack[:0]
				w.views++
				w.visit(cur, t, int(cur.th[t].method))
			}
		}
	}
}

// walk runs the memoized depth-first solo walk of thread t from the
// canonical state st. It returns when the view is exhausted; cycles are
// recorded as they close.
func (w *soloWalk) walk(st *state, t, mi int) {
	w.views++
	if w.views > w.max {
		return
	}
	w.buf = encodeRaw(w.buf[:0], st, t)
	w.visit(st, t, mi)
}

// visit is walk after the view accounting, with w.buf holding the
// view's encodeRaw form.
func (w *soloWalk) visit(st *state, t, mi int) {
	if at, ok := w.seen[string(w.buf)]; ok {
		if at >= 0 { // gray: the walk closed a cycle
			w.record(mi, w.stack[at:])
		}
		return // black: already exhausted, no new cycles through here
	}
	key := string(w.buf)
	th := &st.th[t]
	if th.status != statusRunning {
		// A return (or completed method) is a visible-action boundary;
		// the solo τ-path ends here.
		w.seen[key] = -1
		return
	}
	pc := int(th.pc)
	w.seen[key] = int32(len(w.stack))
	w.stack = append(w.stack, pc)

	body := w.prog.Methods[mi].Body
	st.copyInto(w.x.work)
	w.x.ctx = Ctx{
		T:    t,
		Arg:  th.arg,
		G:    w.x.work.g,
		L:    w.x.work.th[t].locals,
		outs: w.x.ctx.outs[:0],
	}
	if func() (panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		body[pc].Exec(&w.x.ctx)
		return false
	}() {
		// A faulting statement cannot continue the solo path.
		w.x.ctx.outs = w.x.ctx.outs[:0]
	}
	// Successors are materialized before any recursion: the recursive
	// walks reuse w.x (its work state and outcome buffer), so neither
	// may be read after the first recursive call.
	base := len(w.succs)
	for _, out := range w.x.ctx.outs {
		if out.pc < 0 || int(out.pc) >= len(body) {
			continue // return (visible boundary) or out of the method
		}
		var next *state
		if n := len(w.free); n > 0 {
			next, w.free = w.free[n-1], w.free[:n-1]
		} else {
			next = newScratchState(w.prog, len(st.th))
		}
		w.x.work.copyInto(next)
		next.th[t].pc = out.pc
		w.x.canon.run(next)
		w.succs = append(w.succs, next)
	}
	end := len(w.succs)
	for i := base; i < end; i++ {
		w.walk(w.succs[i], t, mi)
	}
	w.free = append(w.free, w.succs[base:end]...)
	w.succs = w.succs[:base]

	w.stack = w.stack[:len(w.stack)-1]
	w.seen[key] = -1
}

// record de-duplicates a closed cycle by its exact (method, pc set)
// identity.
func (w *soloWalk) record(mi int, cyclePCs []int) {
	w.pcs = append(w.pcs[:0], cyclePCs...)
	sort.Ints(w.pcs)
	pcs := slices.Compact(w.pcs)
	w.key = putVarint(w.key[:0], int32(mi))
	for _, pc := range pcs {
		w.key = putVarint(w.key, int32(pc))
	}
	if _, dup := w.found[string(w.key)]; dup {
		return
	}
	w.found[string(w.key)] = struct{}{}
	w.cycles = append(w.cycles, TauCycle{MethodIndex: mi, PCs: slices.Clone(pcs)})
}

// collect labels the de-duplicated cycles and puts them in
// deterministic order.
func (w *soloWalk) collect() []TauCycle {
	if len(w.cycles) == 0 {
		return nil
	}
	out := w.cycles
	for i := range out {
		m := &w.prog.Methods[out[i].MethodIndex]
		out[i].Method = m.Name
		for _, pc := range out[i].PCs {
			lbl := m.Body[pc].Label
			if lbl == "" {
				lbl = fmt.Sprintf("%s.%d", m.Name, pc)
			}
			out[i].Labels = append(out[i].Labels, lbl)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MethodIndex != out[j].MethodIndex {
			return out[i].MethodIndex < out[j].MethodIndex
		}
		return slices.Compare(out[i].PCs, out[j].PCs) < 0
	})
	return out
}

// encodeRaw serializes a state (and a distinguishing thread index for
// solo-walk views; -1 for plain states) as a sequence of zigzag
// varints, one per field. Unlike the exploration encoder it cannot fail
// on out-of-range values, which matters because the pilot also runs on
// defective programs that vet is about to warn about; small values, the
// common case, take one byte each.
func encodeRaw(buf []byte, st *state, viewThread int) []byte {
	buf = putVarint(buf, int32(viewThread))
	for _, v := range st.g.Vars {
		buf = putVarint(buf, v)
	}
	hw := 0
	for i := len(st.g.Heap) - 1; i >= 1; i-- {
		if n := &st.g.Heap[i]; n.Kind|n.Val|n.Key|n.Next|n.A|n.B|n.C|n.D|n.Lock != 0 || n.Mark {
			hw = i
			break
		}
	}
	buf = putVarint(buf, int32(hw))
	for i := 1; i <= hw; i++ {
		n := &st.g.Heap[i]
		m := int32(0)
		if n.Mark {
			m = 1
		}
		for _, v := range [...]int32{n.Kind, n.Val, n.Key, n.Next, n.A, n.B, n.C, n.D, m, n.Lock} {
			buf = putVarint(buf, v)
		}
	}
	for ti := range st.th {
		th := &st.th[ti]
		for _, v := range [...]int32{th.status, th.method, th.arg, th.pc, th.ret, th.ops} {
			buf = putVarint(buf, v)
		}
		for _, l := range th.locals {
			buf = putVarint(buf, l)
		}
	}
	return buf
}

// putVarint appends v zigzag-encoded (small magnitudes of either sign
// map to small unsigned values) as a little-endian base-128 varint.
func putVarint(buf []byte, v int32) []byte {
	u := uint32(v<<1) ^ uint32(v>>31)
	for u >= 0x80 {
		buf = append(buf, byte(u)|0x80)
		u >>= 7
	}
	return append(buf, byte(u))
}

// rawReader reads putVarint fields back.
type rawReader struct {
	buf []byte
	i   int
}

func (r *rawReader) next() int32 {
	var u uint32
	for s := 0; ; s += 7 {
		b := r.buf[r.i]
		r.i++
		u |= uint32(b&0x7f) << s
		if b < 0x80 {
			return int32(u>>1) ^ -int32(u&1)
		}
	}
}

// decodeRaw reconstructs a state from its encodeRaw form into st, which
// must be shaped for the program. The leading view-thread field is
// skipped.
func decodeRaw(buf []byte, st *state) {
	r := rawReader{buf: buf}
	r.next() // view thread
	for j := range st.g.Vars {
		st.g.Vars[j] = r.next()
	}
	hw := int(r.next())
	clear(st.g.Heap)
	for j := 1; j <= hw; j++ {
		n := &st.g.Heap[j]
		n.Kind = r.next()
		n.Val = r.next()
		n.Key = r.next()
		n.Next = r.next()
		n.A = r.next()
		n.B = r.next()
		n.C = r.next()
		n.D = r.next()
		n.Mark = r.next() != 0
		n.Lock = r.next()
	}
	for ti := range st.th {
		th := &st.th[ti]
		th.status = r.next()
		th.method = r.next()
		th.arg = r.next()
		th.pc = r.next()
		th.ret = r.next()
		th.ops = r.next()
		for j := range th.locals {
			th.locals[j] = r.next()
		}
	}
}
