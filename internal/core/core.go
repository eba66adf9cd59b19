// Package core implements the paper's two verification methods (Fig. 1):
//
//   - Linearizability via branching-bisimulation quotients (Theorem 5.3):
//     Δ is linearizable w.r.t. the specification Θsp iff Δ/≈ ⊑tr Θsp/≈.
//   - Lock-freedom via divergence-sensitive branching bisimulation,
//     either automatically against the object's own quotient
//     (Theorem 5.9) or against a hand-written abstract program
//     (Theorem 5.8).
//
// Both methods work on labeled transition systems generated from
// machine.Program models under most general clients, need no
// linearization-point annotations, and produce counterexamples: a
// non-linearizable history, or a divergence (τ-lasso) diagnostic.
//
// On wait-freedom: under a bounded most general client every cycle of the
// state graph is a τ-cycle (calls consume operation budget, returns end
// pending operations), so an execution in which one thread is starved by
// infinitely many successful operations of the others is not expressible
// and lock-freedom and wait-freedom coincide on these instances. Checking
// wait-freedom properly needs fairness assumptions, which the paper also
// leaves to next-free LTL over fair schedulers (Section V.B); this
// library takes the same position.
package core

import (
	"context"
	"time"

	"repro/internal/bisim"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/refine"
	"repro/internal/statecodec"
)

// Config bounds an individual verification instance.
type Config struct {
	// Threads is the number of most-general-client threads.
	Threads int
	// Ops is the number of operations per thread.
	Ops int
	// MaxStates caps each state-space generation; 0 uses the machine
	// package default.
	MaxStates int
	// Workers sets the exploration worker count (0 = all cores, 1 = one
	// worker, expanding inline); the generated LTSs — and hence every
	// verdict — are identical for any value. See machine.Options.Workers.
	Workers int
	// Refiner selects the branching-bisimulation partition-refinement
	// algorithm (signature-based or splitting-tree); the zero value picks
	// automatically by instance size. Every choice produces identical
	// partitions and verdicts — see bisim.Refiner.
	Refiner bisim.Refiner
	// MemBudget bounds (in bytes) the resident state storage of each
	// exploration; past it, a spill-capable Backend sheds intern-table
	// generations and frontier levels to temp files. 0 keeps everything
	// in RAM. Budgets never change any LTS, quotient or verdict — see
	// machine.Options.MemBudget. A positive budget requires Backend.Open.
	MemBudget int64
	// SpillDir is the parent directory for spill temp files; empty uses
	// the OS temp dir.
	SpillDir string
	// Encoding selects the state codec (machine.EncodingAuto/Packed/
	// Legacy); it never changes any result.
	Encoding string
	// LayoutProvider, when set, supplies a packed state layout for each
	// program explored under this configuration (typically vet interval
	// narrowing via vet.StateLayout). Returning nil falls back to the
	// structural layout. Layouts never change any result, only bytes per
	// state.
	LayoutProvider func(p *machine.Program) *statecodec.Layout
	// ReductionProvider, when set, supplies a τ-confluence partial-order
	// reduction artifact for each program explored under this
	// configuration (typically vet.Reduce packed via Machine()).
	// Returning nil explores the full state space. A sound artifact
	// never changes any quotient or verdict — the reduced LTS is
	// divergence-preserving branching bisimilar to the full one — only
	// the number of explored states. Sessions time the analysis as its
	// own StageReduction stage.
	ReductionProvider func(p *machine.Program) *machine.Reduction
	// Backend supplies the platform services of each exploration (state
	// store opener, peak-RSS probe); the zero value is the pure, OS-free
	// configuration. See machine.Options.Backend.
	Backend statecodec.Backend
	// StageObserver, when set, is invoked with every StageStat the moment
	// a session records it (freshly computed and cache-served stages
	// alike), turning the per-stage instrumentation into a live event
	// source — the daemon streams these over SSE. The observer runs with
	// the session mutex held: it must be fast and must not call back into
	// the session. It never changes any result.
	StageObserver func(StageStat)
}

func (c Config) options(p *machine.Program, acts, labels *lts.Alphabet) machine.Options {
	opt := machine.Options{
		Threads:   c.Threads,
		Ops:       c.Ops,
		MaxStates: c.MaxStates,
		Workers:   c.Workers,
		Acts:      acts,
		Labels:    labels,
		MemBudget: c.MemBudget,
		SpillDir:  c.SpillDir,
		Encoding:  c.Encoding,
		Backend:   c.Backend,
	}
	if p != nil && c.LayoutProvider != nil {
		opt.Layout = c.LayoutProvider(p)
	}
	return opt
}

// reduction runs the configured ReductionProvider for p, if any.
func (c Config) reduction(p *machine.Program) *machine.Reduction {
	if p == nil || c.ReductionProvider == nil {
		return nil
	}
	return c.ReductionProvider(p)
}

// Explore generates the LTS of a program under this configuration with a
// shared alphabet, exposed for analyses beyond the canned checks.
func Explore(p *machine.Program, cfg Config, acts, labels *lts.Alphabet) (*lts.LTS, error) {
	return ExploreContext(context.Background(), p, cfg, acts, labels)
}

// ExploreContext is Explore with cancellation; see machine.ExploreContext.
func ExploreContext(ctx context.Context, p *machine.Program, cfg Config, acts, labels *lts.Alphabet) (*lts.LTS, error) {
	opt := cfg.options(p, acts, labels)
	opt.Reduction = cfg.reduction(p)
	return machine.ExploreContext(ctx, p, opt)
}

// LinearizabilityResult reports a Theorem 5.3 check.
type LinearizabilityResult struct {
	// Linearizable is the verdict.
	Linearizable bool
	// Counterexample is a non-linearizable history when the verdict is
	// negative (e.g. the double-remove history of the buggy HM list).
	Counterexample *refine.Counterexample
	// Distinguishing, set on a negative verdict when the two quotients are
	// not even branching bisimilar, is a shortest distinguishing
	// experiment between them (a stronger diagnostic than the trace
	// counterexample: it shows where the branching structures diverge).
	Distinguishing *bisim.Explanation
	// State-space sizes: the object Δ, the specification Θsp and their
	// branching-bisimulation quotients.
	ImplStates, SpecStates           int
	ImplQuotientStates, SpecQuotient int
	// Elapsed is the total wall-clock verification time.
	Elapsed time.Duration
	// Stages instruments the pipeline stages that produced this result,
	// in execution order; stages served from a Session's artifact store
	// are marked Cached.
	Stages []StageStat
}

// CheckLinearizability verifies impl against spec by Theorem 5.3: compute
// both branching-bisimulation quotients, then decide trace refinement
// between the quotients.
func CheckLinearizability(impl, spec *machine.Program, cfg Config) (*LinearizabilityResult, error) {
	return CheckLinearizabilityContext(context.Background(), impl, spec, cfg)
}

// CheckLinearizabilityContext is CheckLinearizability with cancellation:
// exploration and partition refinement poll ctx, so an abandoned or
// timed-out check stops promptly with a typed cancellation error.
func CheckLinearizabilityContext(ctx context.Context, impl, spec *machine.Program, cfg Config) (*LinearizabilityResult, error) {
	return NewSession(cfg).CheckLinearizabilityContext(ctx, impl, spec)
}

// LockFreedomResult reports a Theorem 5.8 or 5.9 check.
type LockFreedomResult struct {
	// LockFree is the verdict.
	LockFree bool
	// Divergence is a τ-lasso witnessing the violation when LockFree is
	// false (Fig. 9 style).
	Divergence *lts.Path
	// Theorem names the proof rule used: "5.9 (quotient)" or
	// "5.8 (abstract)".
	Theorem string
	// ImplStates and AbstractStates are the state-space sizes of the
	// object and of the quotient/abstract program it was compared with.
	ImplStates, AbstractStates int
	// Bisimilar reports whether impl ≈div the quotient/abstraction.
	Bisimilar bool
	// Elapsed is the total wall-clock verification time.
	Elapsed time.Duration
	// Stages instruments the pipeline stages that produced this result.
	Stages []StageStat
}

// CheckLockFreeAuto verifies lock-freedom fully automatically by
// Theorem 5.9: compute Δ/≈ and check Δ ≈div Δ/≈. The quotient never has
// an infinite τ-path (Lemma 5.7), so ≈div holds exactly when Δ is
// divergence-free; a failure yields a divergence diagnostic.
func CheckLockFreeAuto(impl *machine.Program, cfg Config) (*LockFreedomResult, error) {
	return CheckLockFreeAutoContext(context.Background(), impl, cfg)
}

// CheckLockFreeAutoContext is CheckLockFreeAuto with cancellation.
func CheckLockFreeAutoContext(ctx context.Context, impl *machine.Program, cfg Config) (*LockFreedomResult, error) {
	return NewSession(cfg).CheckLockFreeAutoContext(ctx, impl)
}

// CheckLockFreeAbstract verifies lock-freedom by Theorem 5.8: establish
// impl ≈div abs and check lock-freedom of the (much simpler) abstract
// program. When the two systems are not ≈div-related the theorem does not
// apply; the result then reports Bisimilar=false and, if impl itself
// diverges, carries the divergence diagnostic.
func CheckLockFreeAbstract(impl, abs *machine.Program, cfg Config) (*LockFreedomResult, error) {
	return CheckLockFreeAbstractContext(context.Background(), impl, abs, cfg)
}

// CheckLockFreeAbstractContext is CheckLockFreeAbstract with cancellation.
func CheckLockFreeAbstractContext(ctx context.Context, impl, abs *machine.Program, cfg Config) (*LockFreedomResult, error) {
	return NewSession(cfg).CheckLockFreeAbstractContext(ctx, impl, abs)
}

// EquivalenceReport compares an object with its specification under both
// weak and branching bisimilarity (Table VII of the paper).
type EquivalenceReport struct {
	ImplStates, SpecStates         int
	ImplQuotient, SpecQuotient     int
	WeakBisimilar, BranchBisimilar bool
	Elapsed                        time.Duration
	// Stages instruments the pipeline stages that produced this report.
	Stages []StageStat
}

// CompareWithSpec reproduces one row of Table VII: sizes of Δ, Δ/≈, Θsp,
// Θsp/≈, plus whether Δ ~w Θsp and Δ ≈ Θsp.
func CompareWithSpec(impl, spec *machine.Program, cfg Config) (*EquivalenceReport, error) {
	return CompareWithSpecContext(context.Background(), impl, spec, cfg)
}

// CompareWithSpecContext is CompareWithSpec with cancellation.
func CompareWithSpecContext(ctx context.Context, impl, spec *machine.Program, cfg Config) (*EquivalenceReport, error) {
	return NewSession(cfg).CompareWithSpecContext(ctx, impl, spec)
}

// DeadlockResult reports a deadlock-freedom check. Deadlock-freedom is a
// sanity property for the lock-based objects of Table II's bottom half:
// no reachable state may leave some client forever blocked with no
// transition enabled (the legitimate end states — all operations
// completed — do not count).
type DeadlockResult struct {
	// DeadlockFree is the verdict.
	DeadlockFree bool
	// Witness is a shortest path into a deadlocked state when the verdict
	// is negative.
	Witness *lts.Path
	// States is the explored state-space size.
	States int
	// Elapsed is the wall-clock check time.
	Elapsed time.Duration
	// Stages instruments the pipeline stages that produced this result.
	Stages []StageStat
}

// CheckDeadlockFree explores the object and searches for reachable
// deadlocks.
func CheckDeadlockFree(impl *machine.Program, cfg Config) (*DeadlockResult, error) {
	return CheckDeadlockFreeContext(context.Background(), impl, cfg)
}

// CheckDeadlockFreeContext is CheckDeadlockFree with cancellation.
func CheckDeadlockFreeContext(ctx context.Context, impl *machine.Program, cfg Config) (*DeadlockResult, error) {
	return NewSession(cfg).CheckDeadlockFreeContext(ctx, impl)
}
