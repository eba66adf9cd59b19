package bbvl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/machine"
)

// TestNilDerefPanicsWithPosition checks that running a well-typed but
// wrong model (dereferencing nil at runtime) panics with the source
// position of the offending access, and that the explorer turns the
// panic into a *machine.RuntimeError carrying that message and the
// faulting statement, which the api layer reports as a job error.
func TestNilDerefPanicsWithPosition(t *testing.T) {
	src := `model broken
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
	m, err := Load("broken.bbvl", []byte(src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	_, err = machine.Explore(m.Build(algorithms.Config{Threads: 1, Ops: 1}),
		machine.Options{Threads: 1, Ops: 1, Workers: 1})
	var re *machine.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *machine.RuntimeError", err)
	}
	msg, ok := re.Value.(string)
	if !ok || !strings.Contains(msg, "broken.bbvl:7:11") || !strings.Contains(msg, "nil or invalid pointer dereference") {
		t.Fatalf("panic = %v, want positioned nil-deref message", re.Value)
	}
	if re.Method != "Push" || re.Label != "P1" || re.Pos.String() != "broken.bbvl:7:3" {
		t.Errorf("fault located at %s.%s (%s), want Push.P1 (broken.bbvl:7:3)", re.Method, re.Label, re.Pos)
	}
}

// TestArgSetModel runs a model whose method argument ranges over an
// explicit literal set instead of the configured value universe.
func TestArgSetModel(t *testing.T) {
	src := `model argset
globals { G: val }
spec stack
method Push(v: {5, 9}) {
  P1: G = v; return ok
}
method Pop() {
  P2: return G
}
`
	m, err := Load("argset.bbvl", []byte(src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	p := m.Build(algorithms.Config{Threads: 1, Ops: 1})
	if got := p.Methods[0].Args; len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("Push args = %v, want [5 9]", got)
	}
	l, err := machine.Explore(p, machine.Options{Threads: 1, Ops: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates() == 0 {
		t.Fatal("empty LTS")
	}
}

// TestFreeStatement exercises the free micro-instruction.
func TestFreeStatement(t *testing.T) {
	src := `model freeing
node cell { val: val  next: ptr }
globals { Top: ptr }
heap totalops + 1
spec stack
method Push(v: vals) {
  var n: ptr
  P1: n = alloc(cell); n.val = v; goto P2
  P2: if cas(Top, nil, n) { return ok } else { goto P3 }
  P3: free(n); return ok
}
method Pop() { P9: return empty }
`
	m, err := Load("freeing.bbvl", []byte(src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := machine.Explore(m.Build(algorithms.Config{Threads: 2, Ops: 1}),
		machine.Options{Threads: 2, Ops: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestMarkFieldRoundTrip exercises mark-field reads and writes.
func TestMarkFieldRoundTrip(t *testing.T) {
	src := `model marking
node cell { val: val  next: ptr  dead: mark }
globals { Top: ptr  G: val }
spec stack
method Push(v: vals) {
  var n: ptr
  P1: n = alloc(cell); n.val = v; n.dead = false; goto P2
  P2: if cas(Top, nil, n) { return ok } else { goto P3 }
  P3: G = n.dead; return ok
}
method Pop() { P9: return empty }
`
	m, err := Load("marking.bbvl", []byte(src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := machine.Explore(m.Build(algorithms.Config{Threads: 1, Ops: 2}),
		machine.Options{Threads: 1, Ops: 2, Workers: 1}); err != nil {
		t.Fatal(err)
	}
}
