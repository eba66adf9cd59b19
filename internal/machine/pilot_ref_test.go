package machine

import (
	"fmt"
	"sort"
)

// Reference pilot: the three separate pilot BFS loops (τ-cycle probe,
// mutual-exclusion validator, independence validator) with their
// 4-byte-per-field raw state encoding and the two-map solo walk, as they
// stood before the shared Pilot replaced them. Test-only: the
// differential test in pilot_diff_test.go asserts that Pilot reports
// exactly the same cycles and verdicts. The cycle dedup key below still
// truncates method and pc indices to 8 bits; the differential inputs
// have fewer than 256 statements per method, where that is exact.

// refFindTauCycles probes p for solo τ-cycles and returns them sorted by
// (method index, first statement index). It returns nil for programs the
// pilot cannot encode (oversized schemas) and swallows statement panics
// — a statement that faults during the probe is treated as blocked, and
// an unexpected failure aborts the probe with the cycles found so far.
func refFindTauCycles(p *Program, opt PilotOptions) (cycles []TauCycle) {
	if p.Validate() != nil {
		return nil
	}
	// The probe stores raw 4-byte field encodings, so unlike the state
	// encoder it has no value-range limit; the size guards only keep
	// degenerate (fuzzed) programs from allocating absurd scratch states.
	if p.HeapCap > 255 || p.NLocals > 255 || len(p.Globals.Names) > 255 {
		return nil
	}
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

	d := &refTauProbe{
		prog:        p,
		opt:         opt,
		x:           newExpander(p, opt.Threads),
		solo:        newExpander(p, opt.Threads),
		ids:         make(map[string]struct{}),
		color:       make(map[string]int8),
		gray:        make(map[string]int),
		found:       make(map[string][]int),
		foundMethod: make(map[string]int),
	}
	defer func() {
		// A panic anywhere in the probe (program Init, a statement run
		// outside its explored envelope) aborts it but keeps what was
		// already found: vet is advisory and must never take down the
		// caller.
		_ = recover()
		cycles = d.collect()
	}()
	d.run()
	return d.collect()
}

// refTauProbe carries the probe state: the BFS frontier of canonical pilot
// states and the solo-walk memo tables.
type refTauProbe struct {
	prog *Program
	opt  PilotOptions
	x    expander // BFS expansion scratch
	solo expander // solo-walk scratch (separate: walks run mid-BFS state list)

	ids  map[string]struct{}
	keys [][]byte
	buf  []byte

	// Solo-walk memo. A "view" is the full canonical state plus the
	// walking thread's index; its future under a solo schedule depends on
	// nothing else, so colors are sound across probe states. color is 1
	// while the view is on the walk stack (gray) and 2 when exhausted
	// (black); gray maps an on-stack view to its stack index.
	color map[string]int8
	gray  map[string]int
	stack []int // pc per stack entry; the method is fixed during a walk
	views int

	found       map[string][]int // cycle key -> PCs; de-duplicated
	foundMethod map[string]int
}

// run collects reachable pilot states breadth-first, probing each state's
// running threads as it is dequeued.
func (d *refTauProbe) run() {
	init := initialState(d.prog, Options{Threads: d.opt.Threads, Ops: d.opt.Ops})
	d.intern(init)
	cur := newScratchState(d.prog, d.opt.Threads)
	for si := 0; si < len(d.keys); si++ {
		refDecodeRaw(d.keys[si], cur)
		for t := range cur.th {
			if cur.th[t].status == statusRunning && d.views < d.opt.MaxViews {
				mi := int(cur.th[t].method)
				d.stack = d.stack[:0]
				d.walk(cur, t, mi)
			}
		}
		d.expand(cur)
	}
}

// expand enumerates cur's successors into the BFS set, swallowing
// statement panics (the state is then expanded only partially).
func (d *refTauProbe) expand(cur *state) {
	defer func() { _ = recover() }()
	d.x.expandState(cur, d)
}

// emit implements transSink for the BFS: canonicalize and intern the
// successor, dropping it once the state budget is exhausted.
func (d *refTauProbe) emit(x *expander, tr symTrans) bool {
	if len(d.keys) < d.opt.MaxStates {
		d.intern(x.succ)
	}
	return true
}

func (d *refTauProbe) intern(st *state) {
	d.x.canon.run(st)
	d.buf = refEncodeRaw(d.buf[:0], st, -1)
	if _, ok := d.ids[string(d.buf)]; ok {
		return
	}
	key := append([]byte(nil), d.buf...)
	d.ids[bytesString(key)] = struct{}{}
	d.keys = append(d.keys, key)
}

// walk runs the memoized depth-first solo walk of thread t from the
// canonical state st. It returns when the view is exhausted; cycles are
// recorded into d.found as they close.
func (d *refTauProbe) walk(st *state, t, mi int) {
	d.views++
	if d.views > d.opt.MaxViews {
		return
	}
	d.buf = refEncodeRaw(d.buf[:0], st, t)
	key := string(d.buf)
	switch d.color[key] {
	case 1: // gray: the walk closed a cycle
		d.record(mi, d.stack[d.gray[key]:])
		return
	case 2: // black: already exhausted, no new cycles through here
		return
	}
	th := &st.th[t]
	if th.status != statusRunning {
		// A return (or completed method) is a visible-action boundary;
		// the solo τ-path ends here.
		d.color[key] = 2
		return
	}
	pc := int(th.pc)
	d.color[key] = 1
	d.gray[key] = len(d.stack)
	d.stack = append(d.stack, pc)

	p := d.prog
	stmt := &p.Methods[mi].Body[pc]
	st.copyInto(d.solo.work)
	d.solo.ctx = Ctx{
		T:    t,
		Arg:  th.arg,
		G:    d.solo.work.g,
		L:    d.solo.work.th[t].locals,
		outs: d.solo.ctx.outs[:0],
	}
	if func() (panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		stmt.Exec(&d.solo.ctx)
		return false
	}() {
		// A faulting statement cannot continue the solo path.
		d.solo.ctx.outs = d.solo.ctx.outs[:0]
	}
	// Successors are materialized before any recursion: the recursive
	// walks reuse d.solo (its work state and outcome buffer), so neither
	// may be read after the first recursive call.
	var succs []*state
	for _, out := range d.solo.ctx.outs {
		if out.pc < 0 {
			continue // return: visible boundary, path ends
		}
		if int(out.pc) >= len(p.Methods[mi].Body) {
			continue
		}
		next := d.solo.work.clone()
		next.th[t].pc = out.pc
		d.solo.canon.run(next)
		succs = append(succs, next)
	}
	for _, next := range succs {
		d.walk(next, t, mi)
	}

	d.stack = d.stack[:len(d.stack)-1]
	delete(d.gray, key)
	d.color[key] = 2
}

// record de-duplicates a closed cycle by its (method, pc-set) identity.
func (d *refTauProbe) record(mi int, cyclePCs []int) {
	set := map[int]bool{}
	for _, pc := range cyclePCs {
		set[pc] = true
	}
	pcs := make([]int, 0, len(set))
	for pc := range set {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	key := []byte{byte(mi)}
	for _, pc := range pcs {
		key = append(key, byte(pc), ',')
	}
	k := string(key)
	if _, dup := d.found[k]; dup {
		return
	}
	d.found[k] = pcs
	d.foundMethod[k] = mi
}

// collect renders the de-duplicated cycles in deterministic order.
func (d *refTauProbe) collect() []TauCycle {
	if len(d.found) == 0 {
		return nil
	}
	out := make([]TauCycle, 0, len(d.found))
	for k, pcs := range d.found {
		mi := d.foundMethod[k]
		m := &d.prog.Methods[mi]
		c := TauCycle{Method: m.Name, MethodIndex: mi, PCs: pcs}
		for _, pc := range pcs {
			lbl := m.Body[pc].Label
			if lbl == "" {
				lbl = fmt.Sprintf("%s.%d", m.Name, pc)
			}
			c.Labels = append(c.Labels, lbl)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MethodIndex != out[j].MethodIndex {
			return out[i].MethodIndex < out[j].MethodIndex
		}
		return refLessInts(out[i].PCs, out[j].PCs)
	})
	return out
}

func refLessInts(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// refEncodeRaw serializes a state (and a distinguishing thread index for
// solo-walk views; -1 for plain states) with 4 bytes per field. Unlike
// the exploration encoder it cannot fail on out-of-range values, which
// matters because the probe also runs on defective programs that vet is
// about to warn about.
func refEncodeRaw(buf []byte, st *state, viewThread int) []byte {
	put := func(v int32) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	put(int32(viewThread))
	for _, v := range st.g.Vars {
		put(v)
	}
	hw := 0
	for i := len(st.g.Heap) - 1; i >= 1; i-- {
		if st.g.Heap[i] != (Node{}) {
			hw = i
			break
		}
	}
	put(int32(hw))
	for i := 1; i <= hw; i++ {
		n := &st.g.Heap[i]
		m := int32(0)
		if n.Mark {
			m = 1
		}
		for _, v := range []int32{n.Kind, n.Val, n.Key, n.Next, n.A, n.B, n.C, n.D, m, n.Lock} {
			put(v)
		}
	}
	for ti := range st.th {
		th := &st.th[ti]
		for _, v := range []int32{th.status, th.method, th.arg, th.pc, th.ret, th.ops} {
			put(v)
		}
		for _, l := range th.locals {
			put(l)
		}
	}
	return buf
}

// refDecodeRaw reconstructs a state from its refEncodeRaw form into st, which
// must be shaped for the program. The leading view-thread field is
// skipped.
func refDecodeRaw(buf []byte, st *state) {
	i := 0
	get := func() int32 {
		v := int32(buf[i]) | int32(buf[i+1])<<8 | int32(buf[i+2])<<16 | int32(buf[i+3])<<24
		i += 4
		return v
	}
	_ = get() // view thread
	for j := range st.g.Vars {
		st.g.Vars[j] = get()
	}
	hw := int(get())
	for j := range st.g.Heap {
		st.g.Heap[j] = Node{}
	}
	for j := 1; j <= hw; j++ {
		n := &st.g.Heap[j]
		n.Kind = get()
		n.Val = get()
		n.Key = get()
		n.Next = get()
		n.A = get()
		n.B = get()
		n.C = get()
		n.D = get()
		n.Mark = get() != 0
		n.Lock = get()
	}
	for ti := range st.th {
		th := &st.th[ti]
		th.status = get()
		th.method = get()
		th.arg = get()
		th.pc = get()
		th.ret = get()
		th.ops = get()
		for j := range th.locals {
			th.locals[j] = get()
		}
	}
}

// refValidateIndependence dynamically checks an independence relation over
// a pilot instance of p: for every reachable state and every pair of
// running threads whose current statements the oracle declares
// independent, executing the two statements in either order must yield
// the same canonical state, and neither order may block a statement the
// other enables. It returns the first violation found, or nil when the
// relation survives the whole pilot state space — the soundness oracle
// behind the vet independence analysis's property test.
//
// The pilot uses the raw (range-unlimited) state encoding, so it also
// works on randomized programs whose values stray outside the packed
// encoder's range.
func refValidateIndependence(p *Program, opt PilotOptions, indep IndependenceOracle) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if opt.Threads <= 0 {
		opt.Threads = 2
	}
	if opt.Ops <= 0 {
		opt.Ops = 2
	}
	if opt.MaxStates <= 0 {
		opt.MaxStates = 60000
	}
	v := &refIndepValidator{
		prog:  p,
		opt:   opt,
		x:     newExpander(p, opt.Threads),
		canon: newCanonicalizer(p, p.HeapCap+1),
		ids:   make(map[string]struct{}),
		indep: indep,
	}
	v.intern(initialState(p, Options{Threads: opt.Threads, Ops: opt.Ops}))
	cur := newScratchState(p, opt.Threads)
	for si := 0; si < len(v.keys); si++ {
		refDecodeRaw(v.keys[si], cur)
		if err := v.checkState(cur); err != nil {
			return err
		}
		v.expand(cur)
	}
	return nil
}

// refIndepValidator carries the BFS frontier and scratch of one
// refValidateIndependence run.
type refIndepValidator struct {
	prog  *Program
	opt   PilotOptions
	x     expander
	canon *canonicalizer
	ids   map[string]struct{}
	keys  [][]byte
	buf   []byte
	indep IndependenceOracle
}

func (v *refIndepValidator) intern(st *state) {
	v.canon.run(st)
	v.buf = refEncodeRaw(v.buf[:0], st, -1)
	if _, ok := v.ids[string(v.buf)]; ok {
		return
	}
	key := append([]byte(nil), v.buf...)
	v.ids[bytesString(key)] = struct{}{}
	v.keys = append(v.keys, key)
}

// expand enumerates cur's successors into the BFS set, swallowing
// statement panics (degenerate randomized programs may fault; the state
// is then expanded only partially).
func (v *refIndepValidator) expand(cur *state) {
	defer func() { _ = recover() }()
	v.x.expandState(cur, v)
}

// emit implements transSink for the BFS.
func (v *refIndepValidator) emit(x *expander, tr symTrans) bool {
	if len(v.keys) < v.opt.MaxStates {
		v.intern(x.succ)
	}
	return true
}

// refValidateMutualExclusion dynamically checks a mutual-exclusion claim
// over a pilot instance of p: held(mi, pc) declares statement pc of
// method mi to lie inside a critical region, and no reachable state may
// have two running threads simultaneously at held statements. Returns
// the first violation found, or nil when the claim survives the whole
// pilot state space (bounded by opt.MaxStates; truncation weakens
// coverage, never soundness of a reported violation). This is the
// safety net behind the lock-region masking of vet's confluence
// analysis.
func refValidateMutualExclusion(p *Program, opt PilotOptions, held func(mi, pc int) bool) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if opt.Threads <= 0 {
		opt.Threads = 2
	}
	if opt.Ops <= 0 {
		opt.Ops = 2
	}
	if opt.MaxStates <= 0 {
		opt.MaxStates = 60000
	}
	v := &refMutexValidator{
		prog: p,
		opt:  opt,
		x:    newExpander(p, opt.Threads),
		ids:  make(map[string]struct{}),
		held: held,
	}
	v.intern(initialState(p, Options{Threads: opt.Threads, Ops: opt.Ops}))
	cur := newScratchState(p, opt.Threads)
	for si := 0; si < len(v.keys); si++ {
		refDecodeRaw(v.keys[si], cur)
		if err := v.checkState(cur); err != nil {
			return err
		}
		v.expand(cur)
	}
	return nil
}

// refMutexValidator carries the BFS frontier of one
// refValidateMutualExclusion run.
type refMutexValidator struct {
	prog *Program
	opt  PilotOptions
	x    expander
	ids  map[string]struct{}
	keys [][]byte
	buf  []byte
	held func(mi, pc int) bool
}

func (v *refMutexValidator) intern(st *state) {
	v.x.canon.run(st)
	v.buf = refEncodeRaw(v.buf[:0], st, -1)
	if _, ok := v.ids[string(v.buf)]; ok {
		return
	}
	key := append([]byte(nil), v.buf...)
	v.ids[bytesString(key)] = struct{}{}
	v.keys = append(v.keys, key)
}

func (v *refMutexValidator) expand(cur *state) {
	defer func() { _ = recover() }()
	v.x.expandState(cur, v)
}

// emit implements transSink for the BFS.
func (v *refMutexValidator) emit(x *expander, tr symTrans) bool {
	if len(v.keys) < v.opt.MaxStates {
		v.intern(x.succ)
	}
	return true
}

func (v *refMutexValidator) checkState(cur *state) error {
	first := -1
	for t := range cur.th {
		th := &cur.th[t]
		if th.status != statusRunning || !v.held(int(th.method), int(th.pc)) {
			continue
		}
		if first < 0 {
			first = t
			continue
		}
		p := v.prog
		f, s := &cur.th[first], th
		return &MutexViolation{
			Program: p.Name,
			Thread1: first, Thread2: t,
			Method1: p.Methods[f.method].Name, Method2: p.Methods[s.method].Name,
			PC1: int(f.pc), PC2: int(s.pc),
		}
	}
	return nil
}

// execStmt runs thread t's current statement on a clone of st, applying
// the single outcome the way the explorer does. ok is false when the
// statement blocks (no outcome) or faults. IR-backed statements emit at
// most one outcome, which is all the validator supports.
func (v *refIndepValidator) execStmt(st *state, t int) (next *state, ok bool) {
	defer func() {
		if recover() != nil {
			next, ok = nil, false
		}
	}()
	th := &st.th[t]
	stmt := &v.prog.Methods[th.method].Body[th.pc]
	work := st.clone()
	ctx := Ctx{T: t, Arg: th.arg, G: work.g, L: work.th[t].locals}
	stmt.Exec(&ctx)
	if len(ctx.outs) == 0 {
		return nil, false
	}
	out := ctx.outs[0]
	nt := &work.th[t]
	if out.pc < 0 {
		nt.status = statusReturning
		nt.ret = out.ret
		nt.pc = 0
		nt.arg = 0
		for i := range nt.locals {
			nt.locals[i] = 0
		}
	} else {
		nt.pc = out.pc
	}
	return work, true
}

// canonicalKey canonicalizes a clone of st and returns its raw encoding.
func (v *refIndepValidator) canonicalKey(st *state) string {
	c := st.clone()
	v.canon.run(c)
	return string(refEncodeRaw(nil, c, -1))
}

// checkState validates every declared-independent pair of co-enabled
// statements of cur.
func (v *refIndepValidator) checkState(cur *state) error {
	p := v.prog
	for t1 := 0; t1 < len(cur.th); t1++ {
		if cur.th[t1].status != statusRunning {
			continue
		}
		for t2 := t1 + 1; t2 < len(cur.th); t2++ {
			if cur.th[t2].status != statusRunning {
				continue
			}
			m1, pc1 := int(cur.th[t1].method), int(cur.th[t1].pc)
			m2, pc2 := int(cur.th[t2].method), int(cur.th[t2].pc)
			if !v.indep(m1, pc1, m2, pc2) {
				continue
			}
			fail := func(reason string) error {
				return &IndependenceViolation{
					Program: p.Name,
					Thread1: t1, Thread2: t2,
					Method1: p.Methods[m1].Name, Method2: p.Methods[m2].Name,
					PC1: pc1, PC2: pc2,
					Reason: reason,
				}
			}
			a1, ok1 := v.execStmt(cur, t1)
			a2, ok2 := v.execStmt(cur, t2)
			if ok1 {
				b12, ok12 := v.execStmt(a1, t2)
				if ok12 != ok2 {
					return fail("running the first changes whether the second is enabled")
				}
				if ok2 {
					b21, ok21 := v.execStmt(a2, t1)
					if !ok21 {
						return fail("running the second changes whether the first is enabled")
					}
					if v.canonicalKey(b12) != v.canonicalKey(b21) {
						return fail("the two execution orders reach different states")
					}
				}
			} else if ok2 {
				if _, ok21 := v.execStmt(a2, t1); ok21 {
					return fail("running the second changes whether the first is enabled")
				}
			}
		}
	}
	return nil
}
