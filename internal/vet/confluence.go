package vet

import (
	"fmt"
	"strings"

	"repro/internal/machine"
)

// This file classifies statements as statically τ-CONFLUENT and packs
// the result into the ReductionArtifact the explorer consumes
// (machine.Options.Reduction). A statement is confluent when
//
//   1. it is reachable and TOTAL: every path through its instruction
//      tree ends in a goto or return, so executing it always yields
//      exactly one outcome — it can never block (a prioritized step
//      that could block would manufacture spurious deadlocks);
//   2. its footprint is independent of EVERY statement's footprint,
//      its own included (two threads can sit at the same pc) — so it
//      commutes with every step any other thread can take, and taking
//      it first neither enables nor disables anything. Conflicts with
//      statements that can never be CO-enabled are masked: statements
//      inside the critical region of the same verified spin lock
//      (regions.go), and unreachable statements. A masked conflict has
//      no commutation diamond to close — the conflicting pair never
//      faces the scheduler at once; and
//   3. it cannot participate in a cycle of prioritized steps: within
//      each method, the goto graph restricted to confluent statements
//      must be acyclic (statements in nontrivial SCCs are demoted). A
//      cycle of prioritized τ-steps would let the reduced exploration
//      postpone the other threads forever — exactly the divergence
//      ≈div must preserve. Cross-method cycles need a return and a
//      call, both visible, so per-method acyclicity suffices; the
//      bounded taucycle pilot re-checks this dynamically and demotes
//      any confluent cycle it can actually drive (belt and braces).
//
// Prioritizing such a step is an ample-set-style reduction: from a
// state with a thread at a confluent statement, the explorer emits
// only that thread's τ-successor. Every deferred transition is still
// available afterwards (independence), no divergence is created
// (acyclicity) or lost (the step is deterministic and total, and a
// diverging thread still diverges after it), and the visible branching
// structure is untouched — the reduced LTS is divergence-sensitive
// branching bisimilar to the full one, so equivalence verdicts,
// lock-freedom, deadlocks and even quotient block counts agree. See
// DESIGN.md for the full argument.

// StmtRef names one statement in the artifact's method-major flat
// statement order.
type StmtRef struct {
	Method      string `json:"method"`
	MethodIndex int    `json:"method_index"`
	PC          int    `json:"pc"`
	Label       string `json:"label"`
}

// ReductionArtifact is the result of the independence/τ-confluence
// analysis over one program: the per-statement footprints (rendered as
// slot names), the symmetric independence matrix, and the confluence
// classification the explorer's pruning rule consumes.
type ReductionArtifact struct {
	// Program is the analyzed program's name; Threads and Ops are the
	// instance bounds the analysis assumed (they size the heap-
	// sufficiency check and the τ-cycle pilot).
	Program string `json:"program"`
	Threads int    `json:"threads"`
	Ops     int    `json:"ops"`
	// Stmts lists every statement, methods in program order, pcs
	// ascending. All parallel slices below are indexed by it.
	Stmts []StmtRef `json:"stmts"`
	// Reads and Writes name the shared slots each statement's footprint
	// touches; Top marks footprints assumed to conflict with everything.
	Reads  [][]string `json:"reads"`
	Writes [][]string `json:"writes"`
	Top    []bool     `json:"top"`
	// Independent[i][j] reports that statements i and j commute when
	// executed by two distinct threads. Symmetric.
	Independent [][]bool `json:"independent"`
	// Confluent marks the statements the explorer may prioritize.
	Confluent []bool `json:"confluent"`
	// Demoted marks statements that satisfied the local confluence
	// conditions but were rejected by the acyclicity checks.
	Demoted []bool `json:"demoted,omitempty"`
	// Locks names the globals verified as spin locks by the lock-region
	// analysis (statically, then cross-checked by the mutual-exclusion
	// pilot); Region names the lock whose critical region contains each
	// statement ("" outside every region). Conflicts between statements
	// of the same region are masked in the confluence classification:
	// the lock keeps them from ever being co-enabled.
	Locks  []string `json:"locks,omitempty"`
	Region []string `json:"region,omitempty"`

	base     []int // flat index of each method's statement 0
	bodyLens []int
}

// Reduce runs the independence and confluence analyses over p and
// returns the artifact, or nil for programs without IR metadata
// (hand-coded registry programs): with nothing known about their
// statements, no reduction is licensed. Threads/Ops of 0 default to 2.
func Reduce(p *machine.Program, opts Options) *ReductionArtifact {
	if p == nil || !hasIR(p) {
		return nil
	}
	threads, ops := opts.Threads, opts.Ops
	if threads <= 0 {
		threads = 2
	}
	if ops <= 0 {
		ops = 2
	}
	ia := newIndepAnalysis(p, threads, ops)

	a := &ReductionArtifact{Program: p.Name, Threads: threads, Ops: ops}
	a.base = make([]int, len(p.Methods))
	a.bodyLens = make([]int, len(p.Methods))
	var flat []*footprint
	for mi := range p.Methods {
		m := &p.Methods[mi]
		a.base[mi] = len(a.Stmts)
		a.bodyLens[mi] = len(m.Body)
		for si := range m.Body {
			a.Stmts = append(a.Stmts, StmtRef{Method: m.Name, MethodIndex: mi, PC: si, Label: m.Body[si].Label})
			fp := ia.fp[mi][si]
			flat = append(flat, fp)
			a.Reads = append(a.Reads, slotNames(ia, fp.reads))
			a.Writes = append(a.Writes, slotNames(ia, fp.writes))
			a.Top = append(a.Top, fp.top)
		}
	}
	n := len(a.Stmts)
	a.Independent = make([][]bool, n)
	for i := 0; i < n; i++ {
		a.Independent[i] = make([]bool, n)
		for j := 0; j <= i; j++ {
			ind := independent(flat[i], flat[j])
			a.Independent[i][j] = ind
			a.Independent[j][i] = ind
		}
	}

	// Lock regions mask conflicts that can never materialize: two
	// statements holding the same lock are never co-enabled. Each
	// statically inferred region is cross-checked against the dynamic
	// pilot and dropped if any reachable pilot state refutes it.
	pilot := machine.NewPilot(p, machine.PilotOptions{Threads: threads, Ops: ops, MaxStates: opts.MaxPilotStates})
	a.Region = make([]string, n)
	var regions []lockRegion
	for _, r := range inferLockRegions(p) {
		r := r
		if pilot.MutualExclusion(func(mi, pc int) bool {
			return mi < len(r.held) && pc < len(r.held[mi]) && r.held[mi][pc]
		}) != nil {
			continue
		}
		regions = append(regions, r)
		a.Locks = append(a.Locks, r.name)
		for i, s := range a.Stmts {
			if r.held[s.MethodIndex][s.PC] && a.Region[i] == "" {
				a.Region[i] = r.name
			}
		}
	}
	sameRegion := func(i, j int) bool {
		si, sj := a.Stmts[i], a.Stmts[j]
		for _, r := range regions {
			if r.held[si.MethodIndex][si.PC] && r.held[sj.MethodIndex][sj.PC] {
				return true
			}
		}
		return false
	}

	// Local confluence: reachable and total, and every conflict either
	// absent (footprint independence), vacuous (the other statement is
	// unreachable) or impossible (same lock region).
	reachFlat := make([]bool, n)
	for mi := range p.Methods {
		reach := reachableStmts(&p.Methods[mi])
		for si := range p.Methods[mi].Body {
			reachFlat[a.base[mi]+si] = reach[si]
		}
	}
	a.Confluent = make([]bool, n)
	a.Demoted = make([]bool, n)
	for mi := range p.Methods {
		for si := range p.Methods[mi].Body {
			i := a.base[mi] + si
			if !reachFlat[i] || !totalSeq(p.Methods[mi].Body[si].IR) {
				continue
			}
			conf := true
			for j := 0; j < n && conf; j++ {
				conf = !reachFlat[j] || a.Independent[i][j] || sameRegion(i, j)
			}
			a.Confluent[i] = conf
		}
	}

	a.demoteCycles(p)
	a.demoteTauCycles(pilot)
	return a
}

// demoteCycles enforces static acyclicity: within each method, any
// nontrivial SCC (or self-loop) of the goto graph restricted to
// confluent statements is demoted wholesale. Removing statements never
// creates cycles, so one pass leaves the restricted graph acyclic.
func (a *ReductionArtifact) demoteCycles(p *machine.Program) {
	for mi := range p.Methods {
		m := &p.Methods[mi]
		n := len(m.Body)
		adj := make([][]int, n)
		for si := range m.Body {
			if !a.Confluent[a.base[mi]+si] {
				continue
			}
			for _, tgt := range gotoTargets(m.Body[si].IR, nil) {
				if tgt >= 0 && tgt < n && a.Confluent[a.base[mi]+tgt] {
					adj[si] = append(adj[si], tgt)
				}
			}
		}
		for _, comp := range sccList(adj) {
			cyclic := len(comp) > 1
			if !cyclic {
				for _, t := range adj[comp[0]] {
					if t == comp[0] {
						cyclic = true
					}
				}
			}
			if !cyclic {
				continue
			}
			for _, si := range comp {
				if a.Confluent[a.base[mi]+si] {
					a.Confluent[a.base[mi]+si] = false
					a.Demoted[a.base[mi]+si] = true
				}
			}
		}
	}
}

// demoteTauCycles cross-checks acyclicity against the dynamic τ-cycle
// pilot: any solo τ-cycle the pilot can drive whose statements are all
// still confluent is demoted. With static acyclicity already enforced
// this should find nothing; it is the independent safety net the
// divergence argument leans on.
func (a *ReductionArtifact) demoteTauCycles(pilot *machine.Pilot) {
	for _, c := range pilot.TauCycles() {
		if c.MethodIndex < 0 || c.MethodIndex >= len(a.base) {
			continue
		}
		all := len(c.PCs) > 0
		for _, pc := range c.PCs {
			if pc < 0 || pc >= a.bodyLens[c.MethodIndex] || !a.Confluent[a.base[c.MethodIndex]+pc] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		for _, pc := range c.PCs {
			a.Confluent[a.base[c.MethodIndex]+pc] = false
			a.Demoted[a.base[c.MethodIndex]+pc] = true
		}
	}
}

// totalSeq reports whether every execution path through the sequence
// transfers control (goto or return), i.e. the statement always emits
// exactly one outcome. A branch whose arms both transfer terminates
// the scan; a branch with a falling arm continues to the following
// instructions, mirroring execBranch's fall-through.
func totalSeq(seq []machine.Instr) bool {
	for i := range seq {
		in := &seq[i]
		switch in.Op {
		case machine.IRGoto, machine.IRReturn:
			return true
		case machine.IRIfCmp, machine.IRIfCas:
			if totalSeq(in.Then) && totalSeq(in.Else) {
				return true
			}
		}
	}
	return false
}

// Index maps (method index, pc) to the flat statement index.
func (a *ReductionArtifact) Index(mi, pc int) (int, bool) {
	if a == nil || mi < 0 || mi >= len(a.base) || pc < 0 || pc >= a.bodyLens[mi] {
		return 0, false
	}
	return a.base[mi] + pc, true
}

// NumConfluent counts the statements the artifact licenses.
func (a *ReductionArtifact) NumConfluent() int {
	n := 0
	if a == nil {
		return 0
	}
	for _, c := range a.Confluent {
		if c {
			n++
		}
	}
	return n
}

// Machine packs the classification into the explorer-side artifact.
// Returns nil for a nil receiver, which Options.Reduction treats as
// "no reduction".
func (a *ReductionArtifact) Machine() *machine.Reduction {
	if a == nil {
		return nil
	}
	conf := make([][]bool, len(a.bodyLens))
	for mi, n := range a.bodyLens {
		conf[mi] = make([]bool, n)
	}
	for i, s := range a.Stmts {
		if a.Confluent[i] {
			conf[s.MethodIndex][s.PC] = true
		}
	}
	return &machine.Reduction{Confluent: conf}
}

// Oracle exposes the independence relation in the shape
// (*machine.Pilot).Independence consumes. Out-of-range statements are
// never declared independent.
func (a *ReductionArtifact) Oracle() machine.IndependenceOracle {
	return func(m1, pc1, m2, pc2 int) bool {
		i, ok1 := a.Index(m1, pc1)
		j, ok2 := a.Index(m2, pc2)
		return ok1 && ok2 && a.Independent[i][j]
	}
}

// Format renders the human-readable report behind `bbverify vet
// -independence`.
func (a *ReductionArtifact) Format() string {
	if a == nil {
		return "no IR metadata: independence analysis requires a BBVL-compiled program\n"
	}
	var b strings.Builder
	n := len(a.Stmts)
	pairs, indep := 0, 0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			pairs++
			if a.Independent[i][j] {
				indep++
			}
		}
	}
	fmt.Fprintf(&b, "program %s: independence / τ-confluence (threads=%d ops=%d)\n", a.Program, a.Threads, a.Ops)
	fmt.Fprintf(&b, "  %d statements, %d/%d independent pairs, %d confluent\n", n, indep, pairs, a.NumConfluent())
	if len(a.Locks) > 0 {
		fmt.Fprintf(&b, "  verified spin locks: %s\n", strings.Join(a.Locks, ", "))
	}
	lastMethod := -1
	for i, s := range a.Stmts {
		if s.MethodIndex != lastMethod {
			fmt.Fprintf(&b, "  method %s:\n", s.Method)
			lastMethod = s.MethodIndex
		}
		fmt.Fprintf(&b, "    %-4s reads %s writes %s", s.Label, fmtSlots(a.Reads[i], a.Top[i]), fmtSlots(a.Writes[i], a.Top[i]))
		if len(a.Region) > i && a.Region[i] != "" {
			fmt.Fprintf(&b, "  [holds %s]", a.Region[i])
		}
		switch {
		case a.Confluent[i]:
			b.WriteString("  [confluent]")
		case a.Demoted[i]:
			b.WriteString("  [demoted: cycle]")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func fmtSlots(names []string, top bool) string {
	if top {
		return "{⊤}"
	}
	if len(names) == 0 {
		return "{}"
	}
	return "{" + strings.Join(names, ", ") + "}"
}

func slotNames(ia *indepAnalysis, set []bool) []string {
	var out []string
	for s, on := range set {
		if on {
			out = append(out, ia.slotName(s))
		}
	}
	return out
}

// sccList computes the strongly connected components of a digraph
// given as adjacency lists, in reverse topological order of the
// condensation (every component precedes its predecessors). Tarjan's
// algorithm, iterative-free: method graphs are tiny.
func sccList(adj [][]int) [][]int {
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	next := 0
	var strong func(v int)
	strong = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if w < 0 || w >= n {
				continue
			}
			if index[w] < 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strong(v)
		}
	}
	return comps
}
