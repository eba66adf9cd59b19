// Package randprog generates small random IR programs for property and
// differential tests: fresh and published pointers, field accesses
// through shared bases (which may fault), CAS on globals and fields,
// small heaps that can exhaust, branches with falling paths, and goto
// cycles. Generation is a pure function of the seed.
package randprog

import (
	"fmt"
	"math/rand"

	"repro/internal/machine"
)

// progGen builds one random program, keeping pointer/value kind
// discipline so canonicalization stays meaningful (pointer slots only
// ever hold nil or live cell indices — the generator never emits free).
type progGen struct {
	rng        *rand.Rand
	valGlobals []int
	ptrGlobals []int
	valLocals  []int
	ptrLocals  []int
	nstmts     int
}

func (g *progGen) pick(xs []int) (int, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	return xs[g.rng.Intn(len(xs))], true
}

func lit(v int32) machine.Operand { return machine.Operand{Kind: machine.OperandLit, Lit: v} }

func locOp(l machine.Loc) machine.Operand {
	return machine.Operand{Kind: machine.OperandLoc, Loc: l}
}

func globalLoc(i int) machine.Loc {
	return machine.Loc{Kind: machine.LocGlobal, Index: i, Name: fmt.Sprintf("G%d", i)}
}
func localLoc(i int) machine.Loc {
	return machine.Loc{Kind: machine.LocLocal, Index: i, Name: fmt.Sprintf("l%d", i)}
}

// fieldLoc builds a field location through a random pointer variable.
func (g *progGen) fieldLoc(f machine.FieldSel) (machine.Loc, bool) {
	useGlobal := g.rng.Intn(2) == 0
	if useGlobal {
		if i, ok := g.pick(g.ptrGlobals); ok {
			return machine.Loc{Kind: machine.LocField, Index: i, BaseGlobal: true, Field: f, Name: fmt.Sprintf("G%d.%s", i, f)}, true
		}
	}
	if i, ok := g.pick(g.ptrLocals); ok {
		return machine.Loc{Kind: machine.LocField, Index: i, Field: f, Name: fmt.Sprintf("l%d.%s", i, f)}, true
	}
	return machine.Loc{}, false
}

// valOperand yields a value-kinded operand.
func (g *progGen) valOperand() machine.Operand {
	switch g.rng.Intn(6) {
	case 0:
		return lit(int32(g.rng.Intn(3)))
	case 1:
		return machine.Operand{Kind: machine.OperandArg}
	case 2:
		return machine.Operand{Kind: machine.OperandSelf}
	case 3:
		if i, ok := g.pick(g.valGlobals); ok {
			return locOp(globalLoc(i))
		}
	case 4:
		if l, ok := g.fieldLoc(machine.FieldVal); ok {
			return locOp(l)
		}
	}
	if i, ok := g.pick(g.valLocals); ok {
		return locOp(localLoc(i))
	}
	return lit(int32(g.rng.Intn(3)))
}

// ptrOperand yields a pointer-kinded operand (nil, a pointer variable,
// or a next-field read).
func (g *progGen) ptrOperand() machine.Operand {
	switch g.rng.Intn(4) {
	case 0:
		return lit(0) // nil
	case 1:
		if i, ok := g.pick(g.ptrGlobals); ok {
			return locOp(globalLoc(i))
		}
	case 2:
		if l, ok := g.fieldLoc(machine.FieldNext); ok {
			return locOp(l)
		}
	}
	if i, ok := g.pick(g.ptrLocals); ok {
		return locOp(localLoc(i))
	}
	return lit(0)
}

// bodyInstr yields one non-terminating instruction.
func (g *progGen) bodyInstr() (machine.Instr, bool) {
	switch g.rng.Intn(8) {
	case 0:
		if i, ok := g.pick(g.valGlobals); ok {
			return machine.Instr{Op: machine.IRAssign, LHS: globalLoc(i), A: g.valOperand()}, true
		}
	case 1:
		if i, ok := g.pick(g.valLocals); ok {
			return machine.Instr{Op: machine.IRAssign, LHS: localLoc(i), A: g.valOperand()}, true
		}
	case 2:
		if i, ok := g.pick(g.ptrLocals); ok {
			if g.rng.Intn(2) == 0 {
				return machine.Instr{Op: machine.IRAlloc, LHS: localLoc(i), AllocKind: 1}, true
			}
			return machine.Instr{Op: machine.IRAssign, LHS: localLoc(i), A: g.ptrOperand()}, true
		}
	case 3:
		if i, ok := g.pick(g.ptrGlobals); ok {
			return machine.Instr{Op: machine.IRAssign, LHS: globalLoc(i), A: g.ptrOperand()}, true
		}
	case 4:
		if l, ok := g.fieldLoc(machine.FieldVal); ok {
			return machine.Instr{Op: machine.IRAssign, LHS: l, A: g.valOperand()}, true
		}
	case 5:
		if l, ok := g.fieldLoc(machine.FieldNext); ok {
			return machine.Instr{Op: machine.IRAssign, LHS: l, A: g.ptrOperand()}, true
		}
	case 6:
		if i, ok := g.pick(g.valGlobals); ok {
			return machine.Instr{Op: machine.IRCas, LHS: globalLoc(i), A: lit(int32(g.rng.Intn(3))), B: lit(int32(g.rng.Intn(3)))}, true
		}
	case 7:
		if l, ok := g.fieldLoc(machine.FieldVal); ok {
			return machine.Instr{Op: machine.IRCas, LHS: l, A: lit(int32(g.rng.Intn(3))), B: lit(int32(g.rng.Intn(3)))}, true
		}
	}
	return machine.Instr{}, false
}

func (g *progGen) gotoInstr() machine.Instr {
	return machine.Instr{Op: machine.IRGoto, Target: g.rng.Intn(g.nstmts)}
}

// terminator yields an instruction sequence suffix that (usually)
// transfers control on every path.
func (g *progGen) terminator() []machine.Instr {
	switch g.rng.Intn(6) {
	case 0:
		return []machine.Instr{{Op: machine.IRReturn, A: g.valOperand()}}
	case 1:
		return []machine.Instr{{
			Op: machine.IRIfCmp, A: g.valOperand(), B: g.valOperand(), Negate: g.rng.Intn(2) == 0,
			Then: []machine.Instr{g.gotoInstr()},
			Else: []machine.Instr{{Op: machine.IRReturn, A: lit(int32(g.rng.Intn(3)))}},
		}}
	case 2:
		if i, ok := g.pick(g.valGlobals); ok {
			return []machine.Instr{{
				Op: machine.IRIfCas, LHS: globalLoc(i), A: lit(int32(g.rng.Intn(3))), B: lit(int32(g.rng.Intn(3))),
				Then: []machine.Instr{g.gotoInstr()},
				Else: []machine.Instr{g.gotoInstr()},
			}}
		}
	case 3:
		// One falling branch: the statement blocks when the condition
		// picks the empty arm and the sequence ends.
		return []machine.Instr{{
			Op: machine.IRIfCmp, A: g.valOperand(), B: g.valOperand(),
			Then: []machine.Instr{g.gotoInstr()},
		}}
	}
	return []machine.Instr{g.gotoInstr()}
}

// Generate builds the random program for one seed.
func Generate(seed int64) *machine.Program {
	rng := rand.New(rand.NewSource(seed))
	g := &progGen{rng: rng}

	nglobals := 1 + rng.Intn(3)
	names := make([]string, nglobals)
	kinds := make([]machine.VarKind, nglobals)
	for i := range names {
		names[i] = fmt.Sprintf("G%d", i)
		if rng.Intn(3) == 0 {
			kinds[i] = machine.KPtr
			g.ptrGlobals = append(g.ptrGlobals, i)
		} else {
			kinds[i] = machine.KVal
			g.valGlobals = append(g.valGlobals, i)
		}
	}
	nlocals := 2 + rng.Intn(2)
	localKinds := make([]machine.VarKind, nlocals)
	for i := range localKinds {
		if rng.Intn(2) == 0 {
			localKinds[i] = machine.KPtr
			g.ptrLocals = append(g.ptrLocals, i)
		} else {
			localKinds[i] = machine.KVal
			g.valLocals = append(g.valLocals, i)
		}
	}
	// Small heaps exercise the exhaustion path (allocs then conflict
	// through the allocator slot); large ones the alloc-safe path.
	heapCap := []int{2, 3, 10}[rng.Intn(3)]

	nmethods := 1 + rng.Intn(2)
	var methods []machine.Method
	for mi := 0; mi < nmethods; mi++ {
		g.nstmts = 2 + rng.Intn(3)
		var body []machine.Stmt
		for si := 0; si < g.nstmts; si++ {
			var seq []machine.Instr
			for k := rng.Intn(3); k > 0; k-- {
				if in, ok := g.bodyInstr(); ok {
					seq = append(seq, in)
				}
			}
			if rng.Intn(10) > 0 { // 10%: no terminator — every path blocks
				seq = append(seq, g.terminator()...)
			}
			if seq == nil {
				// A statement with no instructions blocks forever; keep
				// its IR non-nil so the program still counts as compiled.
				seq = []machine.Instr{}
			}
			label := fmt.Sprintf("M%dS%d", mi, si)
			body = append(body, machine.Stmt{
				Label: label,
				Exec: func(c *machine.Ctx) {
					machine.RunIR(c, seq)
				},
				IR: seq,
			})
		}
		m := machine.Method{Name: fmt.Sprintf("M%d", mi), Body: body}
		if rng.Intn(2) == 0 {
			m.Args = []int32{1, 2}
		}
		methods = append(methods, m)
	}

	return &machine.Program{
		Name:       fmt.Sprintf("rand-%d", seed),
		Globals:    machine.Schema{Names: names, Kinds: kinds},
		HeapCap:    heapCap,
		NLocals:    nlocals,
		LocalKinds: localKinds,
		Methods:    methods,
	}
}
