package machine

import "fmt"

// This file is the exploration half of the τ-confluence partial-order
// reduction: the artifact the static analysis hands the explorer
// (Reduction, produced by internal/vet's independence and confluence
// passes), the pruning rule applied while successors are enumerated,
// and the pilot checks for the independence relation and the lock
// regions the artifact is derived from.
//
// The pruning rule is ample-set style: when some running thread sits at
// a statement the artifact classifies as confluent — a total internal
// statement that commutes with every co-enabled statement of every
// other thread — the state's expansion emits ONLY that thread's single
// τ-successor and drops every other transition. The reduced LTS is
// divergence-sensitive branching bisimilar to the full one (the
// artifact's confluence and acyclicity obligations are what make the
// argument go through; see DESIGN.md), so every verdict computed from
// it — linearizability, lock-freedom, deadlock-freedom, k-trace levels
// — and even the quotient block counts are unchanged.
//
// Determinism: the rule is a pure function of the canonical state and
// the artifact (lowest-index running thread at a confluent statement
// wins), evaluated inside expandState, which every exploration worker
// shares. Worker counts and memory
// budgets therefore keep producing byte-identical LTSs with a Reduction
// installed, exactly as without one.

// Reduction is the statically computed τ-confluence artifact consumed
// by Options.Reduction. Confluent[m][pc] reports that statement pc of
// method m is a confluent τ-step: executing it commutes with every
// co-enabled step of other threads and cannot participate in a cycle of
// prioritized steps. Produced by vet's independence/confluence analysis
// (vet.Reduce); the zero value licenses nothing.
type Reduction struct {
	Confluent [][]bool
}

// Matches reports whether the artifact is shaped for p (one entry per
// statement of every method). A mis-shaped artifact licenses nothing:
// the explorer ignores it rather than misapply it.
func (r *Reduction) Matches(p *Program) bool {
	if r == nil || len(r.Confluent) != len(p.Methods) {
		return false
	}
	for mi := range p.Methods {
		if len(r.Confluent[mi]) != len(p.Methods[mi].Body) {
			return false
		}
	}
	return true
}

// Empty reports whether the artifact licenses no pruning at all.
func (r *Reduction) Empty() bool {
	if r == nil {
		return true
	}
	for _, m := range r.Confluent {
		for _, c := range m {
			if c {
				return false
			}
		}
	}
	return true
}

// NumConfluent counts the licensed statements.
func (r *Reduction) NumConfluent() int {
	n := 0
	if r == nil {
		return 0
	}
	for _, m := range r.Confluent {
		for _, c := range m {
			if c {
				n++
			}
		}
	}
	return n
}

// pick returns the index of the lowest running thread whose current
// statement the artifact licenses for prioritization, or -1 when the
// state has none and must be expanded in full.
func (r *Reduction) pick(cur *state) int {
	for t := range cur.th {
		th := &cur.th[t]
		if th.status != statusRunning {
			continue
		}
		mi, pc := int(th.method), int(th.pc)
		if mi < len(r.Confluent) && pc < len(r.Confluent[mi]) && r.Confluent[mi][pc] {
			return t
		}
	}
	return -1
}

// IndependenceOracle reports whether statement pc1 of method m1 and
// statement pc2 of method m2 are declared independent (when run by two
// distinct threads). It must be symmetric.
type IndependenceOracle func(m1, pc1, m2, pc2 int) bool

// IndependenceViolation reports a dynamic refutation of a declared
// independence: a reachable state from which executing the two
// statements in the two orders disagrees (different result state, or
// one order enables what the other blocks).
type IndependenceViolation struct {
	Program          string
	Thread1, Thread2 int
	Method1, Method2 string
	PC1, PC2         int
	Reason           string
}

// Error implements the error interface.
func (v *IndependenceViolation) Error() string {
	return fmt.Sprintf("machine: %s: statements %s.%d (t%d) and %s.%d (t%d) declared independent but %s",
		v.Program, v.Method1, v.PC1, v.Thread1+1, v.Method2, v.PC2, v.Thread2+1, v.Reason)
}

// Independence dynamically checks an independence relation over the
// pilot states: for every state and every pair of running threads whose
// current statements the oracle declares independent, executing the two
// statements in either order must yield the same canonical state, and
// neither order may block a statement the other enables. It returns the
// first violation in BFS order, the pilot's construction error when it
// holds no states (a PilotError, or the program's Validate error), or
// nil when the relation survives the whole pilot state space — the
// soundness oracle behind the vet independence analysis's property
// test.
//
// The pilot uses the raw (range-unlimited) state encoding, so it also
// works on randomized programs whose values stray outside the packed
// encoder's range.
func (pl *Pilot) Independence(indep IndependenceOracle) error {
	if pl.err != nil {
		return pl.err
	}
	v := &indepCheck{prog: pl.prog, canon: newCanonicalizer(pl.prog, pl.prog.HeapCap+1), indep: indep}
	cur := newScratchState(pl.prog, pl.opt.Threads)
	for _, key := range pl.keys {
		decodeRaw(key, cur)
		if err := v.checkState(cur); err != nil {
			return err
		}
	}
	return nil
}

// indepCheck carries the scratch of one Independence run.
type indepCheck struct {
	prog  *Program
	canon *canonicalizer
	indep IndependenceOracle
}

// MutexViolation reports a dynamic refutation of a claimed mutual
// exclusion: a reachable pilot state with two running threads both
// inside statements the claim says are protected by the same lock.
type MutexViolation struct {
	Program          string
	Thread1, Thread2 int
	Method1, Method2 string
	PC1, PC2         int
}

// Error implements the error interface.
func (v *MutexViolation) Error() string {
	return fmt.Sprintf("machine: %s: threads t%d (%s.%d) and t%d (%s.%d) co-occupy statements claimed mutually exclusive",
		v.Program, v.Thread1+1, v.Method1, v.PC1, v.Thread2+1, v.Method2, v.PC2)
}

// MutualExclusion dynamically checks a mutual-exclusion claim over the
// pilot states: held(mi, pc) declares statement pc of method mi to lie
// inside a critical region, and no state may have two running threads
// simultaneously at held statements. It returns the first violation in
// BFS order, the pilot's construction error when it holds no states,
// or nil when the claim survives the whole pilot state space (bounded by
// MaxStates; truncation weakens coverage, never soundness of a reported
// violation). This is the safety net behind the lock-region masking of
// vet's confluence analysis.
func (pl *Pilot) MutualExclusion(held func(mi, pc int) bool) error {
	if pl.err != nil {
		return pl.err
	}
	p := pl.prog
	cur := newScratchState(p, pl.opt.Threads)
	for _, key := range pl.keys {
		decodeRaw(key, cur)
		first := -1
		for t := range cur.th {
			th := &cur.th[t]
			if th.status != statusRunning || !held(int(th.method), int(th.pc)) {
				continue
			}
			if first < 0 {
				first = t
				continue
			}
			f := &cur.th[first]
			return &MutexViolation{
				Program: p.Name,
				Thread1: first, Thread2: t,
				Method1: p.Methods[f.method].Name, Method2: p.Methods[th.method].Name,
				PC1: int(f.pc), PC2: int(th.pc),
			}
		}
	}
	return nil
}

// execStmt runs thread t's current statement on a clone of st, applying
// the single outcome the way the explorer does. ok is false when the
// statement blocks (no outcome) or faults. IR-backed statements emit at
// most one outcome, which is all the validator supports.
func (v *indepCheck) execStmt(st *state, t int) (next *state, ok bool) {
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
func (v *indepCheck) canonicalKey(st *state) string {
	c := st.clone()
	v.canon.run(c)
	return string(encodeRaw(nil, c, -1))
}

// checkState validates every declared-independent pair of co-enabled
// statements of cur.
func (v *indepCheck) checkState(cur *state) error {
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
