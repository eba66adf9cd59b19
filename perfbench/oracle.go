package main

import (
	"fmt"

	"repro/internal/api"
)

// verdict is the answer a job must produce, written down independently
// of the code under test: the linearizability and liveness verdicts
// come from the paper's Table II (registry rows) or from the model's
// own documentation (BBVL examples), and the quotient block counts are
// pinned. Quotient sizes are invariant under worker count, memory
// budget, refiner and τ-confluence reduction, so a change that moves
// one has changed an answer. Raw explored-state counts are not part of
// the oracle: a better reduction may legitimately lower them.
type verdict struct {
	// Linearizable is the Theorem 5.3 verdict (check jobs).
	Linearizable bool
	// Live is lock-freedom (Theorem 5.9) for lock-free objects and
	// deadlock-freedom for lock-based ones (check jobs).
	Live bool
	// LockBased selects which liveness check Live refers to.
	LockBased bool
	// ImplQuotient and SpecQuotient are the branching-bisimulation
	// quotient sizes of the implementation and the specification (for
	// explore jobs, ImplQuotient is the quotient size and SpecQuotient
	// is unused).
	ImplQuotient, SpecQuotient int
}

// tableII holds the paper's Table II verdicts at 2 threads × 2 ops with
// values {1, 2}, keyed by registry ID, in paper order. The lock-based
// lists (bottom three rows) have no lock-freedom column in the paper;
// their liveness check is deadlock-freedom, which holds.
var tableII = []struct {
	id string
	v  verdict
}{
	{"treiber", verdict{Linearizable: true, Live: true, ImplQuotient: 388, SpecQuotient: 388}},
	{"treiber-hp", verdict{Linearizable: true, Live: true, ImplQuotient: 388, SpecQuotient: 388}},
	{"treiber-hp-fu", verdict{Linearizable: true, Live: false, ImplQuotient: 493, SpecQuotient: 388}},
	{"ms-queue", verdict{Linearizable: true, Live: true, ImplQuotient: 337, SpecQuotient: 337}},
	{"dglm-queue", verdict{Linearizable: true, Live: true, ImplQuotient: 337, SpecQuotient: 337}},
	{"ccas", verdict{Linearizable: true, Live: true, ImplQuotient: 310, SpecQuotient: 292}},
	{"rdcss", verdict{Linearizable: true, Live: true, ImplQuotient: 460, SpecQuotient: 408}},
	{"newcas", verdict{Linearizable: true, Live: true, ImplQuotient: 155, SpecQuotient: 155}},
	{"hm-list-buggy", verdict{Linearizable: false, Live: true, ImplQuotient: 546, SpecQuotient: 488}},
	{"hm-list", verdict{Linearizable: true, Live: true, ImplQuotient: 496, SpecQuotient: 488}},
	{"hw-queue", verdict{Linearizable: true, Live: false, ImplQuotient: 179, SpecQuotient: 337}},
	{"hsy-stack", verdict{Linearizable: true, Live: true, ImplQuotient: 388, SpecQuotient: 388}},
	{"lazy-list", verdict{Linearizable: true, Live: true, LockBased: true, ImplQuotient: 1071, SpecQuotient: 881}},
	{"optimistic-list", verdict{Linearizable: true, Live: true, LockBased: true, ImplQuotient: 881, SpecQuotient: 881}},
	{"fine-grained-list", verdict{Linearizable: true, Live: true, LockBased: true, ImplQuotient: 881, SpecQuotient: 881}},
}

// msQueue23 is ms-queue at 2 threads × 3 ops with values {1, 2}: the
// paper's Table III row is lock-free and linearizable.
var msQueue23 = verdict{Linearizable: true, Live: true, ImplQuotient: 1656, SpecQuotient: 1530}

// msQueue23Explore pins the quotient of the budgeted explore job.
var msQueue23Explore = verdict{ImplQuotient: 1656}

// bbvlModels are the embedded example models at 3 threads × 2 ops with
// values {1}. Their verdicts are the ones each model file documents:
// both spin-lock objects are linearizable and deadlock-free, the
// Treiber stack is linearizable and lock-free. With a single value a
// stack and a queue have the same specification quotient.
var bbvlModels = []struct {
	name string
	v    verdict
}{
	{"spinlock-stack", verdict{Linearizable: true, Live: true, LockBased: true, ImplQuotient: 3137, SpecQuotient: 3137}},
	{"spinlock-queue", verdict{Linearizable: true, Live: true, LockBased: true, ImplQuotient: 3137, SpecQuotient: 3137}},
	{"treiber", verdict{Linearizable: true, Live: true, ImplQuotient: 3137, SpecQuotient: 3137}},
}

// outcome is what one run of a job answered, from either path (api
// result or the traced pipeline).
type outcome struct {
	Linearizable bool
	Live         bool
	ImplQuotient int
	SpecQuotient int
	// ImplStates is the raw explored-state count: compared between the
	// traced and untraced paths of one build, never against the oracle.
	ImplStates int
}

// outcomeOf extracts the answer from an api result of the given kind.
func outcomeOf(res *api.Result) (outcome, error) {
	switch {
	case res == nil:
		return outcome{}, fmt.Errorf("no result")
	case res.Check != nil:
		c := res.Check
		o := outcome{Linearizable: c.Linearizable, ImplQuotient: c.ImplQuotientStates,
			SpecQuotient: c.SpecQuotientStates, ImplStates: c.ImplStates}
		switch {
		case c.LockFree != nil:
			o.Live = *c.LockFree
		case c.DeadlockFree != nil:
			o.Live = *c.DeadlockFree
		default:
			return outcome{}, fmt.Errorf("check result carries no liveness verdict")
		}
		return o, nil
	case res.Explore != nil:
		return outcome{ImplQuotient: res.Explore.QuotientStates, ImplStates: res.Explore.States}, nil
	}
	return outcome{}, fmt.Errorf("result has neither check nor explore part")
}

// judge compares an outcome with the oracle for a job of the given kind.
func (v verdict) judge(kind string, o outcome) error {
	if kind == api.KindExplore {
		if o.ImplQuotient != v.ImplQuotient {
			return fmt.Errorf("quotient has %d states, want %d", o.ImplQuotient, v.ImplQuotient)
		}
		return nil
	}
	switch {
	case o.Linearizable != v.Linearizable:
		return fmt.Errorf("linearizable=%v, want %v", o.Linearizable, v.Linearizable)
	case o.Live != v.Live:
		return fmt.Errorf("live=%v, want %v", o.Live, v.Live)
	case o.ImplQuotient != v.ImplQuotient || o.SpecQuotient != v.SpecQuotient:
		return fmt.Errorf("quotients %d/%d, want %d/%d", o.ImplQuotient, o.SpecQuotient, v.ImplQuotient, v.SpecQuotient)
	}
	return nil
}
