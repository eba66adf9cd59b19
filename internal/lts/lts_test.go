package lts

import (
	"bytes"
	"strings"
	"testing"
)

func TestAlphabetInterning(t *testing.T) {
	a := NewAlphabet()
	if got := a.ID(TauName); got != Tau {
		t.Fatalf("tau interned as %d, want %d", got, Tau)
	}
	x := a.ID("t1.call.Enq(1)")
	y := a.ID("t1.ret.Enq(ok)")
	if x == y || x == Tau || y == Tau {
		t.Fatalf("distinct names must get distinct non-tau ids: %d %d", x, y)
	}
	if a.ID("t1.call.Enq(1)") != x {
		t.Fatal("re-interning changed the id")
	}
	if a.Name(x) != "t1.call.Enq(1)" {
		t.Fatalf("Name(%d) = %q", x, a.Name(x))
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	if _, ok := a.Lookup("missing"); ok {
		t.Fatal("Lookup found a missing name")
	}
}

func TestBuilderGroupsEdges(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(1, "a", 2)
	b.Add(0, TauName, 1)
	b.Add(0, "b", 2)
	b.Add(1, "a", 0)
	l := b.Build()
	if l.NumStates() != 3 || l.NumTransitions() != 4 {
		t.Fatalf("states=%d trans=%d", l.NumStates(), l.NumTransitions())
	}
	if len(l.Succ(0)) != 2 || len(l.Succ(1)) != 2 || len(l.Succ(2)) != 0 {
		t.Fatalf("succ sizes: %d %d %d", len(l.Succ(0)), len(l.Succ(1)), len(l.Succ(2)))
	}
	// Stable order of state 0's edges is insertion order.
	if !IsTau(l.Succ(0)[0].Action) {
		t.Fatal("first edge of state 0 should be tau")
	}
	if got := l.CountTau(); got != 1 {
		t.Fatalf("CountTau = %d", got)
	}
	if vis := l.VisibleActions(); len(vis) != 2 {
		t.Fatalf("VisibleActions = %v", vis)
	}
}

func TestCSRBuilderMatchesBuilder(t *testing.T) {
	acts := NewAlphabet()
	c := NewCSRBuilder(acts, nil)
	if err := c.BeginState(0); err != nil {
		t.Fatal(err)
	}
	c.Emit(acts.ID("a"), NoLabel, 1)
	c.Emit(Tau, NoLabel, 2)
	if err := c.BeginState(1); err != nil {
		t.Fatal(err)
	}
	c.Emit(acts.ID("b"), NoLabel, 2)
	l := c.Build(3, 0)
	if l.NumStates() != 3 || l.NumTransitions() != 3 {
		t.Fatalf("states=%d trans=%d", l.NumStates(), l.NumTransitions())
	}
	if len(l.Succ(2)) != 0 {
		t.Fatal("state 2 should be terminal")
	}
	if err := c.BeginState(5); err == nil {
		t.Fatal("out-of-order BeginState should fail")
	}
}

func TestTauSCCs(t *testing.T) {
	// 0 --tau--> 1 --tau--> 2 --tau--> 1 (cycle {1,2}), 0 --a--> 3,
	// 3 --tau--> 3 (self loop).
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, TauName, 1)
	b.Add(1, TauName, 2)
	b.Add(2, TauName, 1)
	b.Add(0, "a", 3)
	b.Add(3, TauName, 3)
	l := b.Build()
	scc := TauSCCs(l)
	if scc.Comp[1] != scc.Comp[2] {
		t.Fatal("1 and 2 must share a component")
	}
	if scc.Comp[0] == scc.Comp[1] || scc.Comp[0] == scc.Comp[3] {
		t.Fatal("0 must be alone")
	}
	if !scc.Divergent[scc.Comp[1]] || !scc.Divergent[scc.Comp[3]] {
		t.Fatal("cycle components must be divergent")
	}
	if scc.Divergent[scc.Comp[0]] {
		t.Fatal("state 0 is not divergent")
	}
	// Reverse-topological numbering: tau edge 0->1 crosses components from
	// higher to lower.
	if scc.Comp[0] <= scc.Comp[1] {
		t.Fatalf("expected Comp[0] > Comp[1], got %d vs %d", scc.Comp[0], scc.Comp[1])
	}

	if s, ok := HasTauCycle(l); !ok {
		t.Fatal("tau cycle not found")
	} else if !scc.Divergent[scc.Comp[s]] {
		t.Fatal("HasTauCycle returned a non-divergent state")
	}
}

func TestCollapseTauSCCs(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, TauName, 1)
	b.Add(1, TauName, 0)
	b.Add(1, "a", 2)
	b.Add(0, "a", 2)
	l := b.Build()
	scc := TauSCCs(l)
	col, stateOf := CollapseTauSCCs(l, scc)
	if col.NumStates() != 2 {
		t.Fatalf("collapsed states = %d, want 2", col.NumStates())
	}
	if stateOf[0] != stateOf[1] {
		t.Fatal("0 and 1 should collapse together")
	}
	// Duplicate a-edges merge into one; inert taus vanish.
	if col.NumTransitions() != 1 {
		t.Fatalf("collapsed transitions = %d, want 1", col.NumTransitions())
	}
	if col.CountTau() != 0 {
		t.Fatal("collapse left a tau")
	}
}

func TestDisjointUnion(t *testing.T) {
	acts := NewAlphabet()
	b1 := NewBuilder(acts)
	b1.SetInit(0)
	b1.Add(0, "a", 1)
	l1 := b1.Build()
	b2 := NewBuilder(acts)
	b2.SetInit(1)
	b2.Add(0, "b", 1)
	b2.Add(1, "a", 0)
	l2 := b2.Build()
	u, initB, err := DisjointUnion(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumStates() != 4 || u.NumTransitions() != 3 {
		t.Fatalf("union %d states %d trans", u.NumStates(), u.NumTransitions())
	}
	if initB != 3 {
		t.Fatalf("initB = %d, want 3", initB)
	}
	if u.Succ(3)[0].Dst != 2 {
		t.Fatalf("shifted edge dst = %d, want 2", u.Succ(3)[0].Dst)
	}

	other := NewBuilder(nil)
	other.SetInit(0)
	if _, _, err := DisjointUnion(l1, other.Build()); err == nil {
		t.Fatal("union across alphabets must fail")
	}
}

func TestShortestPathAndDivergence(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, "a", 1)
	b.Add(1, TauName, 2)
	b.Add(2, TauName, 1)
	l := b.Build()
	p, ok := ShortestPathTo(l, func(s int32) bool { return s == 2 })
	if !ok || len(p.Steps) != 2 {
		t.Fatalf("path to 2: ok=%v steps=%d", ok, len(p.Steps))
	}
	if got := p.Trace(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("trace = %v", got)
	}
	d, ok := DivergencePath(l)
	if !ok {
		t.Fatal("divergence not found")
	}
	if d.Cycle < 0 || d.Cycle >= len(d.Steps) {
		t.Fatalf("bad cycle index %d of %d steps", d.Cycle, len(d.Steps))
	}
	// The cycle must return to its starting state via taus only.
	start := d.Steps[d.Cycle].From
	for _, st := range d.Steps[d.Cycle:] {
		if !IsTau(st.Action) {
			t.Fatal("cycle contains a visible action")
		}
	}
	if d.Steps[len(d.Steps)-1].To != start {
		t.Fatal("cycle does not close")
	}
	if !strings.Contains(d.Format(), "divergence") {
		t.Fatal("Format should mention the divergence")
	}

	// A divergence-free system yields no path.
	b2 := NewBuilder(nil)
	b2.SetInit(0)
	b2.Add(0, "a", 1)
	if _, ok := DivergencePath(b2.Build()); ok {
		t.Fatal("found divergence in a divergence-free system")
	}
}

func TestPathToUnreachableGoal(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, "a", 1)
	b.AddStates(3)
	l := b.Build()
	if _, ok := ShortestPathTo(l, func(s int32) bool { return s == 2 }); ok {
		t.Fatal("state 2 should be unreachable")
	}
}

func TestExports(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, "a", 1)
	b.Add(1, TauName, 0)
	l := b.Build()
	var dot, aut bytes.Buffer
	if err := WriteDOT(&dot, l, "test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), `label="a"`) {
		t.Fatalf("dot output missing label: %s", dot.String())
	}
	if err := WriteAUT(&aut, l); err != nil {
		t.Fatal(err)
	}
	want := "des (0, 2, 2)"
	if !strings.Contains(aut.String(), want) {
		t.Fatalf("aut output missing %q: %s", want, aut.String())
	}
	if !strings.Contains(aut.String(), `"i"`) {
		t.Fatal("aut output should render tau as \"i\"")
	}
}

func TestReachable(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, "a", 1)
	b.Add(2, "b", 0) // 2 unreachable
	l := b.Build()
	r := Reachable(l)
	if !r[0] || !r[1] || r[2] {
		t.Fatalf("reachable = %v", r)
	}
}

func TestHasTrace(t *testing.T) {
	b := NewBuilder(nil)
	b.SetInit(0)
	b.Add(0, TauName, 1)
	b.Add(1, "a", 2)
	b.Add(2, "b", 3)
	b.Add(0, "c", 4)
	l := b.Build()
	cases := []struct {
		trace []string
		want  bool
	}{
		{nil, true},
		{[]string{"a"}, true},
		{[]string{"a", "b"}, true},
		{[]string{"b"}, false},
		{[]string{"c"}, true},
		{[]string{"c", "a"}, false},
		{[]string{"missing"}, false},
	}
	for _, tc := range cases {
		if got := HasTrace(l, tc.trace); got != tc.want {
			t.Errorf("HasTrace(%v) = %v, want %v", tc.trace, got, tc.want)
		}
	}
}

// TestReserveGrowsGeometrically pins the bulk-merge contract of
// CSRBuilder.Reserve: a BFS reserves once per level, and growing to
// exactly the requested size would reallocate and copy the whole edge
// array at every level (quadratic in the level count). Fifty
// level-sized reservations must instead reallocate O(log m) times.
func TestReserveGrowsGeometrically(t *testing.T) {
	const levels, states, fanout = 50, 2000, 5
	acts, labels := NewAlphabet(), NewAlphabet()
	row := make([]Transition, fanout)
	allocs := testing.AllocsPerRun(2, func() {
		b := NewCSRBuilder(acts, labels)
		s := int32(0)
		for l := 0; l < levels; l++ {
			b.Reserve(states, states*fanout)
			for i := 0; i < states; i++ {
				if err := b.EmitRow(s, row); err != nil {
					t.Fatal(err)
				}
				s++
			}
		}
	})
	// Each of the two arrays grows by append's factor (1.25 for large
	// arrays), about log_1.25(50) ≈ 18 times at most; growing to the
	// exact size allocates twice per level, about 100 times.
	if allocs > 40 {
		t.Fatalf("%d level-sized Reserve calls allocated %.0f times; want O(log m), at most 40", levels, allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
