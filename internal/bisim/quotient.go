package bisim

import (
	"context"
	"fmt"

	"repro/internal/lts"
)

// Quotient builds the quotient transition system Δ/P of Definition 5.1:
// states are the blocks of p, visible transitions are kept between blocks
// (including self-loops), and τ transitions are kept only when they cross
// blocks — inert τ steps disappear. It is the projection of l onto
// p.BlockOf (lts.Project), so diagnostic labels are preserved (the first
// label seen per quotient edge wins), which keeps line-number annotations
// such as "t1.L28" visible in quotient analyses.
func Quotient(l *lts.LTS, p *Partition) *lts.LTS {
	return lts.Project(l, p.BlockOf, p.Num)
}

// ReduceBranching computes the branching bisimulation quotient Δ/≈ of l,
// returning the quotient and the partition.
func ReduceBranching(l *lts.LTS) (*lts.LTS, *Partition) {
	p := Branching(l)
	return Quotient(l, p), p
}

// ReduceBranchingContext is ReduceBranching with cancellation: the
// refinement loop polls ctx and the quotient is only built when
// refinement ran to completion.
func ReduceBranchingContext(ctx context.Context, l *lts.LTS) (*lts.LTS, *Partition, error) {
	return ReduceBranchingWithRefiner(ctx, l, RefinerAuto)
}

// ReduceBranchingWithRefiner is ReduceBranchingContext with an explicit
// refiner choice; see Refiner for the guarantee that the choice never
// changes the result.
func ReduceBranchingWithRefiner(ctx context.Context, l *lts.LTS, ref Refiner) (*lts.LTS, *Partition, error) {
	p, err := BranchingWithRefiner(ctx, l, ref)
	if err != nil {
		return nil, nil, err
	}
	if err := checkCtx(ctx, "quotient construction"); err != nil {
		return nil, nil, err
	}
	return Quotient(l, p), p, nil
}

// Kind selects a bisimulation notion for Equivalent.
type Kind int

const (
	// KindStrong is strong bisimulation.
	KindStrong Kind = iota + 1
	// KindBranching is branching bisimulation (≈).
	KindBranching
	// KindDivBranching is divergence-sensitive branching bisimulation (≈div).
	KindDivBranching
	// KindWeak is weak bisimulation (≈w).
	KindWeak
	// KindDivWeak is weak bisimulation with explicit divergence.
	KindDivWeak
)

// String returns the conventional name of the bisimulation kind.
func (k Kind) String() string {
	switch k {
	case KindStrong:
		return "strong"
	case KindBranching:
		return "branching"
	case KindDivBranching:
		return "divergence-sensitive branching"
	case KindWeak:
		return "weak"
	case KindDivWeak:
		return "divergence-sensitive weak"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

func partition(ctx context.Context, l *lts.LTS, k Kind) (*Partition, error) {
	switch k {
	case KindStrong:
		return StrongContext(ctx, l)
	case KindBranching:
		return BranchingContext(ctx, l)
	case KindDivBranching:
		return DivergenceSensitiveBranchingContext(ctx, l)
	case KindWeak:
		return WeakContext(ctx, l)
	case KindDivWeak:
		return DivergenceSensitiveWeakContext(ctx, l)
	default:
		return nil, fmt.Errorf("bisim: unknown kind %v", k)
	}
}

// Equivalent reports whether two systems over a shared alphabet are
// bisimilar under the chosen notion, by partitioning their disjoint union
// and comparing the blocks of the initial states.
func Equivalent(a, b *lts.LTS, k Kind) (bool, error) {
	return EquivalentContext(context.Background(), a, b, k)
}

// EquivalentContext is Equivalent with cancellation: the underlying
// refinement polls ctx and a *CanceledError is returned when it fires.
func EquivalentContext(ctx context.Context, a, b *lts.LTS, k Kind) (bool, error) {
	u, initB, err := lts.DisjointUnion(a, b)
	if err != nil {
		return false, err
	}
	p, err := partition(ctx, u, k)
	if err != nil {
		return false, err
	}
	return p.BlockOf[u.Init] == p.BlockOf[initB], nil
}
