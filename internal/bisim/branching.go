package bisim

import (
	"context"
	"fmt"

	"repro/internal/lts"
)

// CanceledError reports that a partition-refinement computation was
// abandoned because its context was canceled or its deadline expired. It
// unwraps to the context cause, so errors.Is(err, context.Canceled)
// works as expected.
type CanceledError struct {
	// Stage names the interrupted computation (e.g. "branching
	// refinement").
	Stage string
	Cause error
}

// Error implements the error interface.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("bisim: %s canceled: %v", e.Stage, e.Cause)
}

// Unwrap exposes the context cause.
func (e *CanceledError) Unwrap() error { return e.Cause }

// checkCtx returns the typed cancellation error when ctx is done.
func checkCtx(ctx context.Context, stage string) error {
	if ctx.Err() != nil {
		return &CanceledError{Stage: stage, Cause: context.Cause(ctx)}
	}
	return nil
}

// divergenceAction is the synthetic visible action used to encode
// divergence when computing divergence-sensitive branching bisimulation.
// It is never interned into an Alphabet; the ID is chosen outside any
// realistic alphabet range and only lives inside signature pairs.
const divergenceAction lts.ActionID = 1<<30 - 1

// checkDivergenceReserve guards the reserved δ action ID: if an alphabet
// ever grew to n ≥ divergenceAction interned actions, a genuine action
// would silently collide with δ inside divergence-sensitive signatures
// and corrupt the partition. The guard fails loudly instead; it is called
// wherever δ signature pairs are built.
func checkDivergenceReserve(n int) {
	if lts.ActionID(n) > divergenceAction {
		panic(fmt.Sprintf("bisim: alphabet with %d actions collides with the reserved divergence action ID %d", n, divergenceAction))
	}
}

// Branching computes the branching bisimulation partition of l
// (the relation ≈ of Definition 4.1, in its standard stuttering form).
func Branching(l *lts.LTS) *Partition {
	p, _ := BranchingContext(context.Background(), l)
	return p
}

// BranchingContext is Branching with cancellation: the refinement loop
// polls ctx once per round and returns a *CanceledError when it is done.
// The refiner is chosen automatically (RefinerAuto); the choice never
// affects the result — see Refiner.
func BranchingContext(ctx context.Context, l *lts.LTS) (*Partition, error) {
	return branching(ctx, l, false, RefinerAuto)
}

// DivergenceSensitiveBranching computes the divergence-sensitive branching
// bisimulation partition of l (the relation ≈div of Definition 5.5).
func DivergenceSensitiveBranching(l *lts.LTS) *Partition {
	p, _ := DivergenceSensitiveBranchingContext(context.Background(), l)
	return p
}

// DivergenceSensitiveBranchingContext is DivergenceSensitiveBranching
// with cancellation.
func DivergenceSensitiveBranchingContext(ctx context.Context, l *lts.LTS) (*Partition, error) {
	return branching(ctx, l, true, RefinerAuto)
}

func branching(ctx context.Context, l *lts.LTS, divSensitive bool, ref Refiner) (*Partition, error) {
	if divSensitive {
		checkDivergenceReserve(l.Acts.Len())
	}
	scc := lts.TauSCCs(l)
	collapsed, stateOf := lts.CollapseTauSCCs(l, scc)
	divergent := scc.Divergent // the collapsed states are the components
	if !divSensitive {
		divergent = make([]bool, collapsed.NumStates())
	}
	var cp *Partition
	var err error
	if resolveRefiner(ref, collapsed) == RefinerSplitter {
		cp, _, err = splitterOnDAG(ctx, collapsed, divergent)
	} else {
		cp, err = branchingOnDAG(ctx, collapsed, divergent)
	}
	if err != nil {
		return nil, err
	}
	// Map the collapsed partition back to the original states.
	blockOf := make([]int32, l.NumStates())
	for s := range blockOf {
		blockOf[s] = cp.BlockOf[stateOf[s]]
	}
	return &Partition{BlockOf: blockOf, Num: cp.Num, Rounds: cp.Rounds}, nil
}

// branchingOnDAG runs signature refinement on a τ-acyclic LTS. The τ-SCC
// collapse numbers components in reverse topological order, so every τ
// transition goes from a higher state ID to a strictly lower one; states
// are therefore processed in increasing ID order so that inert-τ
// signature inheritance finds its successors already computed.
//
// The branching signature of s under partition P is
//
//	sig(s) = { (a, P(t)) | s ⇒ᵢ s' --a--> t, a ≠ τ or P(t) ≠ P(s) }
//
// where ⇒ᵢ is any sequence of inert τ steps (staying inside P(s)).
// States marked divergent additionally contribute (δ, P(s)), encoding a
// visible δ self-loop.
func branchingOnDAG(ctx context.Context, l *lts.LTS, divergent []bool) (*Partition, error) {
	n := l.NumStates()
	p := uniform(n)
	table := newSigTable(n)
	sigs := make([][]uint64, n)
	for rounds := 1; ; rounds++ {
		if err := checkCtx(ctx, "branching refinement"); err != nil {
			return nil, err
		}
		table.reset()
		next := make([]int32, n)
		for s := 0; s < n; s++ {
			sig := sigs[s][:0]
			sb := p.BlockOf[s]
			for _, tr := range l.Succ(int32(s)) {
				tb := p.BlockOf[tr.Dst]
				if lts.IsTau(tr.Action) && tb == sb {
					// Inert: inherit the τ-successor's signature. The
					// collapse guarantees tr.Dst < s, so sigs[tr.Dst] is
					// final for this round.
					sig = append(sig, sigs[tr.Dst]...)
					continue
				}
				sig = append(sig, sigPair(tr.Action, tb))
			}
			if divergent[s] {
				sig = append(sig, sigPair(divergenceAction, sb))
			}
			sig = sortDedup(sig)
			sigs[s] = sig
			next[s] = table.blockFor(sb, sig)
		}
		num := table.len()
		if num == p.Num {
			p.Rounds = rounds
			return p, nil
		}
		p = &Partition{BlockOf: next, Num: num}
	}
}
