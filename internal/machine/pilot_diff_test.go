package machine_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/machine"
	"repro/internal/randprog"
	"repro/internal/vet"
)

// Differential test of the shared Pilot against the reference pilot
// (the three separate BFS loops with the 4-byte raw encoding, kept in
// pilot_ref_test.go): on every registry implementation, specification
// and abstract program, every embedded BBVL model and a batch of seeded
// random IR programs, TauCycles, MutualExclusion and Independence must
// report exactly what the reference reports.

// raceEnabled is set by race_test.go in -race builds, which run the
// 2×2 instances only (the full matrix takes minutes under the race
// detector).
var raceEnabled bool

type pilotCase struct {
	name string
	prog *machine.Program
	opt  machine.PilotOptions
}

func pilotCases(t *testing.T) []pilotCase {
	t.Helper()
	var cases []pilotCase
	add := func(name string, cfg algorithms.Config, p *machine.Program) {
		cases = append(cases, pilotCase{
			name: fmt.Sprintf("%s/%dx%d", name, cfg.Threads, cfg.Ops),
			prog: p,
			opt:  machine.PilotOptions{Threads: cfg.Threads, Ops: cfg.Ops, MaxStates: 20000},
		})
	}
	sizes := []algorithms.Config{{Threads: 2, Ops: 2}, {Threads: 2, Ops: 3}, {Threads: 3, Ops: 2}}
	quick := testing.Short() || raceEnabled
	if quick {
		sizes = sizes[:1]
	}
	for _, cfg := range sizes {
		for _, a := range algorithms.All() {
			add(a.ID, cfg, a.Build(cfg))
			add(a.ID+"-spec", cfg, a.Spec(cfg))
			if a.Abstract != nil {
				add(a.ID+"-abstract", cfg, a.Abstract(cfg))
			}
		}
	}
	for _, cfg := range []algorithms.Config{{Threads: 2, Ops: 2}, {Threads: 3, Ops: 2}} {
		for _, name := range bbvlexamples.Names() {
			src, err := bbvlexamples.Source(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := bbvl.Load(bbvlexamples.Filename(name), src)
			if err != nil {
				t.Fatal(err)
			}
			add("bbvl-"+name, cfg, m.Build(cfg))
		}
	}
	seeds := 120
	if quick {
		seeds = 30
	}
	for seed := 0; seed < seeds; seed++ {
		add(fmt.Sprintf("rand-%d", seed), algorithms.Config{Threads: 2, Ops: 2}, randprog.Generate(int64(seed)))
	}
	return cases
}

// mutexClaims derives a few deterministic mutual-exclusion claims for p:
// every statement, every method entry, and two random subsets.
func mutexClaims(name string, p *machine.Program) []func(mi, pc int) bool {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	claims := []func(mi, pc int) bool{
		func(mi, pc int) bool { return true },
		func(mi, pc int) bool { return pc == 0 },
	}
	for _, density := range []int{2, 4} {
		held := make([][]bool, len(p.Methods))
		for mi := range p.Methods {
			held[mi] = make([]bool, len(p.Methods[mi].Body))
			for pc := range held[mi] {
				held[mi][pc] = rng.Intn(density) == 0
			}
		}
		claims = append(claims, func(mi, pc int) bool { return held[mi][pc] })
	}
	return claims
}

func TestPilotMatchesReference(t *testing.T) {
	instances, cycles := 0, 0
	for _, c := range pilotCases(t) {
		pl := machine.NewPilot(c.prog, c.opt)

		got, want := pl.TauCycles(), machine.RefFindTauCycles(c.prog, c.opt)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: TauCycles = %+v, reference %+v", c.name, got, want)
		}
		cycles += len(want)

		for i, held := range mutexClaims(c.name, c.prog) {
			got, want := pl.MutualExclusion(held), machine.RefValidateMutualExclusion(c.prog, c.opt, held)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: claim %d: MutualExclusion = %v, reference %v", c.name, i, got, want)
			}
		}

		oracles := map[string]machine.IndependenceOracle{
			"all": func(m1, pc1, m2, pc2 int) bool { return true },
		}
		if art := vet.Reduce(c.prog, vet.Options{Threads: c.opt.Threads, Ops: c.opt.Ops}); art != nil {
			oracles["reduce"] = art.Oracle()
		}
		for name, indep := range oracles {
			got, want := pl.Independence(indep), machine.RefValidateIndependence(c.prog, c.opt, indep)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s oracle: Independence = %v, reference %v", c.name, name, got, want)
			}
		}
		instances++
	}
	t.Logf("%d instances, %d τ-cycles, all identical to the reference pilot", instances, cycles)
}

// TestTauCyclesAllocs pins the allocation count of one pilot build plus
// τ-cycle probe on two registry programs at 2×2. Before the shared
// pilot (4-byte keys, a key string per solo view and a clone per
// successor) these were 56,821 and 303,861; the bound is a third of
// that. Allocation counts are deterministic, so this is a stable gate.
func TestTauCyclesAllocs(t *testing.T) {
	for _, tc := range []struct {
		id  string
		max float64
	}{
		{"treiber", 56821 / 3},
		{"ms-queue", 303861 / 3},
	} {
		alg, err := algorithms.ByID(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		p := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
		allocs := testing.AllocsPerRun(1, func() {
			machine.NewPilot(p, machine.PilotOptions{}).TauCycles()
		})
		t.Logf("%s: %.0f allocs", tc.id, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocs per pilot + TauCycles, want <= %.0f", tc.id, allocs, tc.max)
		}
	}
}
