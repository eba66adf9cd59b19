package bbv

import (
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/exhibits"
	"repro/internal/ktrace"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/refine"
)

// ---------------------------------------------------------------------------
// Exhibit benchmarks: one per table and figure of the paper (quick-mode
// instances; run `go run ./cmd/paper-tables all` for the full sweeps).
// ---------------------------------------------------------------------------

func benchExhibit(b *testing.B, name string) {
	b.Helper()
	e, err := exhibits.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := e.Run(exhibits.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty exhibit")
		}
	}
}

func BenchmarkTable1KTraceClassification(b *testing.B) { benchExhibit(b, "table1") }
func BenchmarkTable2Verdicts(b *testing.B)             { benchExhibit(b, "table2") }
func BenchmarkTable3MSQueueLockFree(b *testing.B)      { benchExhibit(b, "table3") }
func BenchmarkTable4HMListLockFree(b *testing.B)       { benchExhibit(b, "table4") }
func BenchmarkTable5HWQueueViolation(b *testing.B)     { benchExhibit(b, "table5") }
func BenchmarkTable6QueueComparison(b *testing.B)      { benchExhibit(b, "table6") }
func BenchmarkTable7WeakVsBranching(b *testing.B)      { benchExhibit(b, "table7") }
func BenchmarkFig6TraceInvisibleLP(b *testing.B)       { benchExhibit(b, "fig6") }
func BenchmarkFig7QuotientDiagnostics(b *testing.B)    { benchExhibit(b, "fig7") }
func BenchmarkFig10QuotientReduction(b *testing.B)     { benchExhibit(b, "fig10") }

// ---------------------------------------------------------------------------
// Engine micro-benchmarks.
// ---------------------------------------------------------------------------

// buildLTS explores one packaged algorithm instance for the micro-benches.
func buildLTS(b *testing.B, id string, threads, ops int, vals []int32) *lts.LTS {
	b.Helper()
	alg, err := algorithms.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	l, err := machine.Explore(alg.Build(algorithms.Config{Threads: threads, Ops: ops, Vals: vals}),
		machine.Options{Threads: threads, Ops: ops})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkExploreMSQueue measures state-space generation (the CADP
// generator replacement): canonicalization, hashing and interning.
func BenchmarkExploreMSQueue(b *testing.B) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		b.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := machine.Explore(prog, machine.Options{Threads: 2, Ops: 2})
		if err != nil {
			b.Fatal(err)
		}
		if l.NumStates() == 0 {
			b.Fatal("empty LTS")
		}
	}
}

// BenchmarkExploreParallel sweeps exploration worker counts on the two
// generation-bound workloads of the paper's sweeps — the MS queue
// (~250k states at 2x3 with one value) and the HM list — so the
// parallel-BFS speedup lands in the bench trajectory. w1 is the
// sequential baseline; every worker count produces the identical LTS.
func BenchmarkExploreParallel(b *testing.B) {
	cases := []struct {
		id           string
		threads, ops int
		vals         []int32
	}{
		{"ms-queue", 2, 3, []int32{1}},
		{"hm-list", 2, 2, nil},
	}
	for _, c := range cases {
		alg, err := algorithms.ByID(c.id)
		if err != nil {
			b.Fatal(err)
		}
		prog := alg.Build(algorithms.Config{Threads: c.threads, Ops: c.ops, Vals: c.vals})
		for _, workers := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s/%dx%d/w%d", c.id, c.threads, c.ops, workers)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					l, err := machine.Explore(prog, machine.Options{
						Threads: c.threads, Ops: c.ops, Workers: workers,
					})
					if err != nil {
						b.Fatal(err)
					}
					if l.NumStates() == 0 {
						b.Fatal("empty LTS")
					}
				}
			})
		}
	}
}

// BenchmarkBranchingPartition measures the signature-refinement core on a
// quarter-million-state system.
func BenchmarkBranchingPartition(b *testing.B) {
	l := buildLTS(b, "ms-queue", 2, 3, []int32{1})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := bisim.Branching(l)
		if p.Num == 0 {
			b.Fatal("empty partition")
		}
	}
}

// BenchmarkDivergenceSensitivePartition adds the τ-SCC divergence flags.
func BenchmarkDivergenceSensitivePartition(b *testing.B) {
	l := buildLTS(b, "treiber-hp-fu", 2, 2, nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := bisim.DivergenceSensitiveBranching(l)
		if p.Num == 0 {
			b.Fatal("empty partition")
		}
	}
}

// BenchmarkWeakPartitionQuotient measures weak bisimulation on a quotient
// (how Table VII is computed).
func BenchmarkWeakPartitionQuotient(b *testing.B) {
	l := buildLTS(b, "ms-queue", 2, 3, []int32{1})
	q, _ := bisim.ReduceBranching(l)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := bisim.Weak(q)
		if p.Num == 0 {
			b.Fatal("empty partition")
		}
	}
}

// BenchmarkQuotientConstruction measures Definition 5.1 quotient building
// given a partition.
func BenchmarkQuotientConstruction(b *testing.B) {
	l := buildLTS(b, "ms-queue", 2, 3, []int32{1})
	p := bisim.Branching(l)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := bisim.Quotient(l, p)
		if q.NumStates() == 0 {
			b.Fatal("empty quotient")
		}
	}
}

// BenchmarkTraceInclusionQuotients measures the Theorem 5.3 refinement
// check between quotients.
func BenchmarkTraceInclusionQuotients(b *testing.B) {
	acts := lts.NewAlphabet()
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithms.Config{Threads: 2, Ops: 3, Vals: []int32{1}}
	impl, err := machine.Explore(alg.Build(cfg), machine.Options{Threads: 2, Ops: 3, Acts: acts})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := machine.Explore(alg.Spec(cfg), machine.Options{Threads: 2, Ops: 3, Acts: acts})
	if err != nil {
		b.Fatal(err)
	}
	implQ, _ := bisim.ReduceBranching(impl)
	specQ, _ := bisim.ReduceBranching(spec)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := refine.TraceInclusion(implQ, specQ)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Included {
			b.Fatal("unexpected refinement failure")
		}
	}
}

// BenchmarkKTraceHierarchy measures the ≡ₖ hierarchy computation on the
// MS queue quotient (Table I workload).
func BenchmarkKTraceHierarchy(b *testing.B) {
	l := buildLTS(b, "ms-queue", 2, 3, []int32{1})
	q, _ := bisim.ReduceBranching(l)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := ktrace.Analyze(q, 5)
		if !a.Converged {
			b.Fatal("hierarchy did not converge")
		}
	}
}

// BenchmarkReduceBranching measures the full Definition 5.1 reduction —
// partition refinement plus quotient construction — the unit of work a
// session memoizes per LTS.
func BenchmarkReduceBranching(b *testing.B) {
	l := buildLTS(b, "ms-queue", 2, 3, []int32{1})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, p := bisim.ReduceBranching(l)
		if q.NumStates() == 0 || p.Num == 0 {
			b.Fatal("empty quotient")
		}
	}
}

// BenchmarkDivergenceSensitive measures the Theorem 5.9 core: deciding
// Δ ≈div Δ/≈ on the buggy hazard-pointer Treiber stack (a divergent
// system, so the τ-SCC flags matter).
func BenchmarkDivergenceSensitive(b *testing.B) {
	l := buildLTS(b, "treiber-hp-fu", 2, 2, nil)
	q, _ := bisim.ReduceBranching(l)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bisim.Equivalent(l, q, bisim.KindDivBranching); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionReuse contrasts one-shot checks with an artifact
// session for the Table II per-benchmark workload (linearizability then
// lock-freedom of the same object): the session serves the second
// check's exploration and quotient from the memo.
func BenchmarkSessionReuse(b *testing.B) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		b.Fatal(err)
	}
	acfg := algorithms.Config{Threads: 2, Ops: 2, Vals: []int32{1}}
	ccfg := core.Config{Threads: 2, Ops: 2}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.CheckLinearizability(alg.Build(acfg), alg.Spec(acfg), ccfg); err != nil {
				b.Fatal(err)
			}
			if _, err := core.CheckLockFreeAuto(alg.Build(acfg), ccfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess := core.NewSession(ccfg)
			impl := alg.Build(acfg)
			if _, err := sess.CheckLinearizability(impl, alg.Spec(acfg)); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.CheckLockFreeAuto(impl); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTauSCC measures the τ-cycle (lock-freedom witness) analysis.
func BenchmarkTauSCC(b *testing.B) {
	l := buildLTS(b, "ms-queue", 2, 3, []int32{1})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scc := lts.TauSCCs(l)
		if scc.NumComps == 0 {
			b.Fatal("no components")
		}
	}
}

// BenchmarkCollapseTauSCCs measures the τ-SCC collapse (a linear-time
// projection onto the components), the first derived LTS of every check.
func BenchmarkCollapseTauSCCs(b *testing.B) {
	l := buildLTS(b, "ms-queue", 2, 3, []int32{1})
	scc := lts.TauSCCs(l)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c, _ := lts.CollapseTauSCCs(l, scc); c.NumStates() != scc.NumComps {
			b.Fatal("collapse lost components")
		}
	}
}
