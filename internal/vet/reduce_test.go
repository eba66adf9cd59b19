package vet_test

import (
	"testing"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/machine"
	"repro/internal/vet"
)

// loadExample compiles one embedded BBVL example model.
func loadExample(t testing.TB, name string) *bbvl.Model {
	t.Helper()
	src, err := bbvlexamples.Source(name)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	m, err := bbvl.Load(bbvlexamples.Filename(name), src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return m
}

// TestReduceExampleConfluence pins the confluence classification on the
// example models. The confluent statements are the ones whose shared
// effects are provably private (freshly allocated cells), read-only on
// slots nothing writes, or confined to a verified lock's critical
// region (never co-enabled with their conflicts): treiber's node
// preparation and next-read, ms-queue's node preparation and value
// read, and the spinlock stack's entire critical sections except the
// releases (which genuinely race with the spinning acquires).
func TestReduceExampleConfluence(t *testing.T) {
	cases := []struct {
		model string
		want  map[string]bool
	}{
		{"treiber", map[string]bool{"P1": true, "P5": true}},
		{"msqueue", map[string]bool{"L1": true, "L26": true}},
		{"spinlock-stack", map[string]bool{
			"S1": true, "S3": true, "S4": true, "S7": true, "S9": true, "S10": true}},
		{"spinlock-queue", map[string]bool{
			"Q1": true, "Q3": true, "Q4": true, "Q7": true, "Q9": true}},
	}
	for _, tc := range cases {
		m := loadExample(t, tc.model)
		p := m.Build(algorithms.Config{Threads: 2, Ops: 2})
		art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2})
		if art == nil {
			t.Fatalf("%s: Reduce returned nil for an IR program", tc.model)
		}
		got := map[string]bool{}
		for i, s := range art.Stmts {
			if art.Confluent[i] {
				got[s.Label] = true
			}
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: confluent set %v, want %v\n%s", tc.model, got, tc.want, art.Format())
			continue
		}
		for l := range tc.want {
			if !got[l] {
				t.Errorf("%s: statement %s not confluent\n%s", tc.model, l, art.Format())
			}
		}
		// The packed artifact must fit the program it came from.
		if red := art.Machine(); !red.Matches(p) {
			t.Errorf("%s: Machine() artifact does not match program shape", tc.model)
		} else if red.NumConfluent() != art.NumConfluent() {
			t.Errorf("%s: Machine() lost statements: %d != %d", tc.model, red.NumConfluent(), art.NumConfluent())
		}
		// The independence matrix must be symmetric and reflexively
		// consistent with the oracle view.
		oracle := art.Oracle()
		for i, si := range art.Stmts {
			for j, sj := range art.Stmts {
				if art.Independent[i][j] != art.Independent[j][i] {
					t.Fatalf("%s: asymmetric independence %s/%s", tc.model, si.Label, sj.Label)
				}
				if oracle(si.MethodIndex, si.PC, sj.MethodIndex, sj.PC) != art.Independent[i][j] {
					t.Fatalf("%s: oracle disagrees with matrix at %s/%s", tc.model, si.Label, sj.Label)
				}
			}
		}
	}
}

// TestReduceExamplesValidateDynamically replays every declared
// independence of the example models through the dynamic two-order
// commutation check over the full pilot state space.
func TestReduceExamplesValidateDynamically(t *testing.T) {
	for _, name := range bbvlexamples.Names() {
		m := loadExample(t, name)
		p := m.Build(algorithms.Config{Threads: 2, Ops: 2})
		art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2})
		if art == nil {
			t.Fatalf("%s: Reduce returned nil", name)
		}
		if err := machine.NewPilot(p, machine.PilotOptions{Threads: 2, Ops: 2}).Independence(art.Oracle()); err != nil {
			t.Errorf("%s: %v\n%s", name, err, art.Format())
		}
	}
}

// TestReduceRegistryProgramsNil: hand-coded registry programs carry no
// IR, so no reduction is licensed.
func TestReduceRegistryProgramsNil(t *testing.T) {
	alg, err := algorithms.ByID("treiber")
	if err != nil {
		t.Fatal(err)
	}
	p := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	if art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2}); art != nil {
		t.Fatalf("Reduce on IR-less program returned %v, want nil", art)
	}
	var nilArt *vet.ReductionArtifact
	if nilArt.Machine() != nil || nilArt.NumConfluent() != 0 {
		t.Fatalf("nil artifact must pack to nil")
	}
}

func lit(v int32) machine.Operand { return machine.Operand{Kind: machine.OperandLit, Lit: v} }

// irStmt builds a statement whose Exec interprets the given IR.
func irStmt(label string, seq []machine.Instr) machine.Stmt {
	return machine.Stmt{
		Label: label,
		Exec:  func(c *machine.Ctx) { machine.RunIR(c, seq) },
		IR:    seq,
	}
}

// TestReduceDemotesSelfLoop: a goto-self statement with an empty
// footprint passes every local confluence condition but would let the
// reduced exploration spin a single thread forever; the acyclicity
// demotion must reject it.
func TestReduceDemotesSelfLoop(t *testing.T) {
	p := &machine.Program{
		Name:    "selfloop",
		Globals: machine.Schema{Names: []string{"G"}, Kinds: []machine.VarKind{machine.KVal}},
		NLocals: 1,
		Methods: []machine.Method{{
			Name: "Spin",
			Body: []machine.Stmt{
				irStmt("T0", []machine.Instr{{Op: machine.IRGoto, Target: 0}}),
			},
		}},
	}
	art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2})
	if art == nil {
		t.Fatal("Reduce returned nil")
	}
	if art.Confluent[0] {
		t.Fatalf("goto-self statement classified confluent\n%s", art.Format())
	}
	if !art.Demoted[0] {
		t.Fatalf("goto-self statement not marked demoted\n%s", art.Format())
	}
}

// TestReduceNonTotalNotConfluent: a statement with a falling-through
// path emits no outcome on that path (it blocks), so prioritizing it
// could manufacture deadlocks; it must not be confluent even with an
// empty footprint.
func TestReduceNonTotalNotConfluent(t *testing.T) {
	lit := func(v int32) machine.Operand { return machine.Operand{Kind: machine.OperandLit, Lit: v} }
	local0 := machine.Loc{Kind: machine.LocLocal, Index: 0, Name: "l0"}
	p := &machine.Program{
		Name:    "nontotal",
		Globals: machine.Schema{Names: []string{"G"}, Kinds: []machine.VarKind{machine.KVal}},
		NLocals: 1,
		Methods: []machine.Method{{
			Name: "M",
			Body: []machine.Stmt{
				// T0: if l0 == 0 { goto T1 }   (else falls off the end: blocked)
				irStmt("T0", []machine.Instr{{
					Op: machine.IRIfCmp, A: machine.Operand{Kind: machine.OperandLoc, Loc: local0}, B: lit(0),
					Then: []machine.Instr{{Op: machine.IRGoto, Target: 1}},
				}}),
				irStmt("T1", []machine.Instr{{Op: machine.IRReturn, A: lit(0)}}),
			},
		}},
	}
	art := vet.Reduce(p, vet.Options{Threads: 2, Ops: 2})
	if art == nil {
		t.Fatal("Reduce returned nil")
	}
	if art.Confluent[0] {
		t.Fatalf("non-total statement classified confluent\n%s", art.Format())
	}
	if !art.Confluent[1] {
		t.Fatalf("trivial return statement should be confluent\n%s", art.Format())
	}
}

// reduceSink keeps BenchmarkReduce's result live.
var reduceSink *vet.ReductionArtifact

// BenchmarkReduce times the whole static reduction — independence,
// lock regions with their mutual-exclusion pilot checks, confluence and
// the τ-cycle demotion — on the three BBVL models the reduction
// benchmark workload runs, at 3×2.
func BenchmarkReduce(b *testing.B) {
	for _, name := range []string{"spinlock-stack", "spinlock-queue", "treiber"} {
		p := loadExample(b, name).Build(algorithms.Config{Threads: 3, Ops: 2})
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reduceSink = vet.Reduce(p, vet.Options{Threads: 3, Ops: 2})
			}
		})
	}
}
