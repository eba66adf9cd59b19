package vet_test

import (
	"testing"

	"repro/internal/bisim"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/randprog"
	"repro/internal/vet"
)

// Property test for the independence analysis: generate randomized
// small IR programs and replay every pair of statements the analysis
// declares independent through (*machine.Pilot).Independence, which
// executes the pair in both orders from every reachable pilot state
// and demands identical canonical results and consistent enabledness.
// The generator (internal/randprog) deliberately covers the analysis's
// hard cases: fresh and published pointers, field accesses through
// shared bases (which may fault), CAS on globals and fields, small
// heaps that can exhaust, branches with falling paths, and goto cycles.

// TestIndependencePropertyRandomized: 200 seeds, every declared
// independence dynamically validated over the full pilot state space.
func TestIndependencePropertyRandomized(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	totalIndep, checkedEquiv := 0, 0
	for seed := 0; seed < seeds; seed++ {
		p := randprog.Generate(int64(seed))
		art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2, MaxPilotStates: 2000})
		if art == nil {
			t.Fatalf("seed %d: Reduce returned nil for an IR program", seed)
		}
		for i := range art.Independent {
			for j := 0; j < i; j++ {
				if art.Independent[i][j] {
					totalIndep++
				}
			}
		}
		err := machine.NewPilot(p, machine.PilotOptions{Threads: 2, Ops: 2, MaxStates: 20000}).Independence(art.Oracle())
		if err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, art.Format())
		}
		// End-to-end: the reduced exploration (confluence masking, lock
		// regions, τ-chain compression and all) must stay ≈div-equivalent
		// to the full one. Seeds whose state space exceeds the cap are
		// skipped — the validation above already covered their pairs.
		red := art.Machine()
		if red.Empty() {
			continue
		}
		acts, labels := lts.NewAlphabet(), lts.NewAlphabet()
		full, err := machine.Explore(p, machine.Options{
			Threads: 2, Ops: 2, MaxStates: 50000, Acts: acts, Labels: labels})
		if err != nil {
			continue // faulting (*machine.RuntimeError) or over-budget program: nothing to compare
		}
		reduced, err := machine.Explore(p, machine.Options{
			Threads: 2, Ops: 2, MaxStates: 50000, Acts: acts, Labels: labels, Reduction: red})
		if err != nil {
			t.Errorf("seed %d: reduced exploration failed where full succeeded: %v", seed, err)
			continue
		}
		checkedEquiv++
		eq, err := bisim.Equivalent(full, reduced, bisim.KindDivBranching)
		if err != nil {
			t.Errorf("seed %d: equivalence check: %v", seed, err)
		} else if !eq {
			t.Errorf("seed %d: reduced LTS not ≈div-equivalent to full (%d vs %d states)\n%s",
				seed, reduced.NumStates(), full.NumStates(), art.Format())
		}
	}
	// The test is vacuous if the generator never produces independent
	// pairs; in practice thousands are declared across 200 seeds.
	if totalIndep == 0 {
		t.Fatal("no independent pairs declared across all seeds; generator or analysis defective")
	}
	if checkedEquiv == 0 {
		t.Fatal("no seed reached the full-vs-reduced equivalence check")
	}
	t.Logf("validated %d declared-independent statement pairs across %d seeds; %d full-vs-reduced equivalence checks", totalIndep, seeds, checkedEquiv)
}
