package machine_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/randprog"
	"repro/internal/statestore"
	"repro/internal/vet"
)

// Differential test of the store-backed explorer against the reference
// sequential explorer it replaced (explore_ref_test.go: its own
// map[string]int32 interning and the slot-by-slot codec). Every cell of
// workers × memory budget × reduction must reproduce the reference's
// .aut bytes, deadlock list, state count, encoded key bytes and pruned
// state count; a program whose code faults must fail with the same
// *machine.RuntimeError in every cell, carrying the reference's panic.

type diffCase struct {
	name string
	prog *machine.Program
	opt  machine.Options
	red  *machine.Reduction // nil when the program licenses no reduction
}

func diffCases(t *testing.T, quick bool) []diffCase {
	t.Helper()
	var cases []diffCase
	add := func(name string, p *machine.Program, cfg algorithms.Config, maxStates int) {
		opt := machine.Options{Threads: cfg.Threads, Ops: cfg.Ops, MaxStates: maxStates}
		opt.Layout = vet.StateLayout(p, vet.Options{Threads: cfg.Threads, Ops: cfg.Ops})
		c := diffCase{name: name, prog: p, opt: opt}
		if art := vet.Reduce(p, vet.Options{Threads: cfg.Threads, Ops: cfg.Ops}); art != nil {
			if red := art.Machine(); !red.Empty() {
				c.red = red
			}
		}
		cases = append(cases, c)
	}
	cfg := algorithms.Config{Threads: 2, Ops: 2}
	for _, a := range algorithms.TableII() {
		add(a.ID, a.Build(cfg), cfg, 0)
	}
	for _, name := range bbvlexamples.Names() {
		src, err := bbvlexamples.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := bbvl.Load(bbvlexamples.Filename(name), src)
		if err != nil {
			t.Fatal(err)
		}
		add("bbvl-"+name, m.Build(cfg), cfg, 0)
	}
	seeds := 100
	if quick {
		seeds = 20
	}
	for seed := 0; seed < seeds; seed++ {
		add(fmt.Sprintf("rand-%d", seed), randprog.Generate(int64(seed)), cfg, 20000)
	}
	return cases
}

// diffOutcome is everything one exploration is compared on.
type diffOutcome struct {
	aut       []byte
	deadlocks []int32
	states    int
	encoded   int64
	pruned    int64
	err       error
}

func outcomeOf(t *testing.T, l *lts.LTS, info *machine.Info, err error) diffOutcome {
	t.Helper()
	if err != nil {
		return diffOutcome{err: err}
	}
	var buf bytes.Buffer
	if err := lts.WriteAUT(&buf, l); err != nil {
		t.Fatal(err)
	}
	return diffOutcome{
		aut:       buf.Bytes(),
		deadlocks: info.Deadlocks,
		states:    info.Stats.States,
		encoded:   info.Stats.EncodedBytes,
		pruned:    info.Stats.PrunedStates,
	}
}

// refOutcome runs the reference explorer, turning the panic a faulting
// program raises there into a comparable error value.
func refOutcome(t *testing.T, p *machine.Program, opt machine.Options) (o diffOutcome, panicked any) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			o, panicked = diffOutcome{}, v
		}
	}()
	l, info, err := machine.RefExplore(p, opt)
	return outcomeOf(t, l, info, err), nil
}

func TestExploreMatchesReference(t *testing.T) {
	quick := testing.Short() || raceEnabled
	workerCounts := []int{1, 2, 8}
	if quick {
		workerCounts = []int{1, 8}
	}
	faults := 0
	for _, c := range diffCases(t, quick) {
		for _, reduce := range []bool{false, true} {
			if reduce && c.red == nil {
				continue
			}
			opt := c.opt
			if reduce {
				opt.Reduction = c.red
			}
			want, refPanic := refOutcome(t, c.prog, opt)
			var firstErr string
			for _, workers := range workerCounts {
				for _, budget := range []int64{0, 8 << 20} {
					cell := fmt.Sprintf("%s reduce=%v workers=%d budget=%d", c.name, reduce, workers, budget)
					o := opt
					o.Workers = workers
					if budget > 0 {
						o.MemBudget, o.SpillDir, o.Backend = budget, t.TempDir(), statestore.Runtime()
					}
					l, info, err := machine.ExploreWithInfo(c.prog, o)
					got := outcomeOf(t, l, info, err)
					if refPanic != nil {
						var re *machine.RuntimeError
						if !errors.As(got.err, &re) {
							t.Fatalf("%s: reference panicked with %v, got err %v", cell, refPanic, got.err)
						}
						if fmt.Sprint(re.Value) != fmt.Sprint(refPanic) {
							t.Fatalf("%s: fault %v, reference panicked with %v", cell, re.Value, refPanic)
						}
						if firstErr == "" {
							firstErr = got.err.Error()
						} else if got.err.Error() != firstErr {
							t.Fatalf("%s: error %q differs from the first cell's %q", cell, got.err, firstErr)
						}
						continue
					}
					if (got.err == nil) != (want.err == nil) || (got.err != nil && got.err.Error() != want.err.Error()) {
						t.Fatalf("%s: err %v, reference %v", cell, got.err, want.err)
					}
					if !bytes.Equal(got.aut, want.aut) {
						t.Fatalf("%s: .aut differs from the reference (%dB vs %dB)", cell, len(got.aut), len(want.aut))
					}
					if !slices.Equal(got.deadlocks, want.deadlocks) || got.states != want.states ||
						got.encoded != want.encoded || got.pruned != want.pruned {
						t.Fatalf("%s: deadlocks %v states %d encoded %d pruned %d; reference %v %d %d %d", cell,
							got.deadlocks, got.states, got.encoded, got.pruned,
							want.deadlocks, want.states, want.encoded, want.pruned)
					}
				}
			}
			if refPanic != nil {
				faults++
			}
		}
	}
	t.Logf("%d faulting program/reduction pairs reported identically", faults)
}

// TestExploreAllocs pins the allocation profile of the one explorer at
// one worker: interning allocates per table growth, never per state, so
// exploring ms-queue 2×2 (about 2,700 states) allocates a few hundred
// times. The sequential loop it replaced allocated 22,602 times; the
// bound is a third of that.
func TestExploreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	opt := machine.Options{Threads: 2, Ops: 2, Workers: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := machine.Explore(prog, opt); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 22602 / 3
	if allocs > bound {
		t.Fatalf("exploring ms-queue 2x2 at one worker allocated %.0f times; want at most %d", allocs, bound)
	}
	t.Logf("%.0f allocations", allocs)
}
