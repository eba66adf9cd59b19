package api

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
)

const tinyModel = `model tiny
globals { G: val }
spec stack
method Push(v: vals) { P1: G = v; return ok }
method Pop() { P2: return G }
`

func TestDecodeJobSpecStrict(t *testing.T) {
	spec, err := DecodeJobSpec(strings.NewReader(`{"kind":"check","algorithm":"treiber","threads":2,"ops":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Algorithm != "treiber" || spec.Threads != 2 {
		t.Errorf("spec = %+v", spec)
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"kind":"check","algorithem":"treiber"}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"kind":"check"} trailing`)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"kind":"check"}{"kind":"explore"}`)); err == nil {
		t.Error("second document accepted")
	}
}

func TestCacheKeyModelSource(t *testing.T) {
	base := JobSpec{Kind: KindCheck, Algorithm: "treiber", Threads: 2, Ops: 2}
	m1 := JobSpec{Kind: KindCheck, ModelSource: tinyModel, Threads: 2, Ops: 2}
	m2 := m1
	m2.ModelSource = tinyModel + "# changed\n"
	if base.CacheKey() == m1.CacheKey() {
		t.Error("model job hashes like a registry job")
	}
	if m1.CacheKey() == m2.CacheKey() {
		t.Error("different model sources share a cache key")
	}
	named := m1
	named.ModelName = "other.bbvl"
	if m1.CacheKey() != named.CacheKey() {
		t.Error("model_name (cosmetic) entered the cache key")
	}
}

func TestValidateModelSpec(t *testing.T) {
	good := JobSpec{Kind: KindCheck, ModelSource: tinyModel, Threads: 2, Ops: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model spec rejected: %v", err)
	}
	both := good
	both.Algorithm = "treiber"
	if err := both.Validate(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("algorithm+model accepted: %v", err)
	}
	bad := good
	bad.ModelSource = "model broken\nspec stack\nmethod Push(v: vals) { P1: goto X }\nmethod Pop() { P2: return empty }\n"
	err := bad.Validate()
	if err == nil {
		t.Fatal("broken model accepted")
	}
	diags := Diagnostics(err)
	if len(diags) == 0 {
		t.Fatalf("no diagnostics extracted from %v", err)
	}
	if diags[0].File != "model.bbvl" || diags[0].Line != 3 {
		t.Errorf("diagnostic = %+v, want model.bbvl line 3", diags[0])
	}
}

func TestDiagnosticsNonModelError(t *testing.T) {
	spec := JobSpec{Kind: KindCheck, Algorithm: "no-such-algorithm", Threads: 2, Ops: 2}
	err := spec.Validate()
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if d := Diagnostics(err); d != nil {
		t.Errorf("registry error produced diagnostics: %+v", d)
	}
}

func TestRunModelCheck(t *testing.T) {
	res, err := Run(context.Background(), JobSpec{
		Kind: KindCheck, ModelSource: tinyModel, Threads: 2, Ops: 2, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Check == nil {
		t.Fatal("no check result")
	}
	// A single shared register without any synchronization is not a
	// linearizable stack (Pop can read a value that was never pushed
	// last); what matters here is that the pipeline ran end to end.
	if res.Check.ImplStates == 0 || res.Check.SpecStates == 0 {
		t.Errorf("empty exploration: %+v", res.Check)
	}
}

func TestRunModelRuntimePanicRecovered(t *testing.T) {
	const src = `model broken
node cell { val: val  next: ptr }
globals { Top: ptr }
spec stack
method Push(v: vals) {
  var t: ptr
  P1: t = Top.next; goto P2
  P2: if cas(Top, t, nil) { return ok } else { goto P1 }
}
method Pop() { P9: return empty }
`
	// The fault happens inside an exploration worker; every worker count
	// must fail the job with the same positioned error instead of
	// crashing the process.
	var first string
	for _, workers := range []int{1, 2} {
		_, err := Run(context.Background(), JobSpec{
			Kind: KindCheck, ModelSource: src,
			Threads: 1, Ops: 1, Workers: workers,
		})
		if err == nil {
			t.Fatalf("workers=%d: runtime nil deref did not fail the job", workers)
		}
		if !strings.Contains(err.Error(), "model runtime error") || !strings.Contains(err.Error(), "model.bbvl:7:11") {
			t.Errorf("workers=%d: err = %v, want positioned model runtime error", workers, err)
		}
		var re *machine.RuntimeError
		if !errors.As(err, &re) || re.Method != "Push" || re.Pos.Line != 7 {
			t.Errorf("workers=%d: err = %#v, want a *machine.RuntimeError at Push (line 7)", workers, err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("workers=%d: error %q differs from workers=1 %q", workers, err, first)
		}
	}
}
