package lts

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refBuild is Builder.Build as a comparison sort: a stable sort of the
// edges by source, then one pass that counts the rows. The counting sort
// in Build must produce exactly this LTS.
func refBuild(b *Builder) *LTS {
	if b.n == 0 {
		b.n = 1
	}
	sort.SliceStable(b.edges, func(i, j int) bool { return b.edges[i].src < b.edges[j].src })
	l := &LTS{
		Acts:      b.acts,
		Labels:    b.labels,
		Init:      b.init,
		numStates: b.n,
		offsets:   make([]int32, b.n+1),
		edges:     make([]Transition, len(b.edges)),
	}
	for i, e := range b.edges {
		l.offsets[e.src+1]++
		l.edges[i] = e.tr
	}
	for s := 0; s < b.n; s++ {
		l.offsets[s+1] += l.offsets[s]
	}
	return l
}

// refCollapse is the τ-SCC collapse as a hash set of packed (source,
// target, action) keys feeding a Builder that is finished by refBuild.
// The key keeps only the low 16 bits of the action and lets targets at or
// above 2²⁴ overlap the source bits, so it is a faithful reference only
// for alphabets below 65,536 actions and fewer than 2²⁴ components.
func refCollapse(l *LTS, scc *TauSCC) *LTS {
	b := NewBuilder(l.Acts)
	b.SetLabels(l.Labels)
	b.AddStates(scc.NumComps)
	b.SetInit(int(scc.Comp[l.Init]))
	seen := make(map[uint64]struct{}, l.NumTransitions())
	for s := 0; s < l.NumStates(); s++ {
		cs := scc.Comp[s]
		for _, t := range l.Succ(int32(s)) {
			cd := scc.Comp[t.Dst]
			if IsTau(t.Action) && cs == cd {
				continue
			}
			key := uint64(cs)<<40 | uint64(cd)<<16 | uint64(uint16(t.Action))
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			b.AddFull(int(cs), t.Action, t.Label, int(cd))
		}
	}
	return refBuild(b)
}

// diffLTS describes the first difference between two systems — initial
// state, state count, CSR offsets, edges with their labels, or the AUT
// rendering — or returns nil when they are identical.
func diffLTS(got, want *LTS) error {
	if got.Init != want.Init || got.numStates != want.numStates {
		return fmt.Errorf("init/states %d/%d, want %d/%d", got.Init, got.numStates, want.Init, want.numStates)
	}
	if len(got.offsets) != len(want.offsets) || len(got.edges) != len(want.edges) {
		return fmt.Errorf("%d offsets/%d edges, want %d/%d", len(got.offsets), len(got.edges), len(want.offsets), len(want.edges))
	}
	for i := range got.offsets {
		if got.offsets[i] != want.offsets[i] {
			return fmt.Errorf("offsets[%d] = %d, want %d", i, got.offsets[i], want.offsets[i])
		}
	}
	for i := range got.edges {
		if got.edges[i] != want.edges[i] {
			return fmt.Errorf("edges[%d] = %+v, want %+v", i, got.edges[i], want.edges[i])
		}
	}
	var ga, wa bytes.Buffer
	if err := WriteAUT(&ga, got); err != nil {
		return err
	}
	if err := WriteAUT(&wa, want); err != nil {
		return err
	}
	if !bytes.Equal(ga.Bytes(), wa.Bytes()) {
		return fmt.Errorf("AUT renderings differ")
	}
	return nil
}

// randomMultiBuilder fills a builder with a pseudo-random multigraph: τ
// cycles through rings of states, τ and visible self-loops, and parallel
// edges that repeat an action with a different label or change the action.
func randomMultiBuilder(r *rand.Rand, acts, labels *Alphabet) *Builder {
	for _, name := range []string{"a", "b", "c", "d"} {
		acts.ID(name)
	}
	for _, name := range []string{"t1.L1", "t1.L2", "t2.L7"} {
		labels.ID(name)
	}
	n := 1 + r.Intn(30)
	b := NewBuilder(acts)
	b.SetLabels(labels)
	b.SetInit(r.Intn(n))
	b.AddStates(n)
	act := func() ActionID {
		if r.Intn(2) == 0 {
			return Tau
		}
		return ActionID(r.Intn(acts.Len()))
	}
	label := func() LabelID { return LabelID(r.Intn(labels.Len()+1) - 1) }
	for i, m := 0, r.Intn(4*n+1); i < m; i++ {
		src, dst := r.Intn(n), r.Intn(n)
		switch r.Intn(5) {
		case 0: // self-loop
			dst = src
		case 1: // τ ring src → src+1 → … → src
			k := 2 + r.Intn(3)
			for j := 0; j < k; j++ {
				b.AddFull((src+j)%n, Tau, label(), (src+j+1)%n)
			}
			continue
		}
		a := act()
		b.AddFull(src, a, label(), dst)
		if r.Intn(3) == 0 { // parallel edge: same action, new label
			b.AddFull(src, a, label(), dst)
		}
		if r.Intn(3) == 0 { // parallel edge: other action
			b.AddFull(src, act(), label(), dst)
		}
	}
	return b
}

// TestBuildMatchesStableSort checks the counting sort in Builder.Build
// against a stable comparison sort on random multigraphs.
func TestBuildMatchesStableSort(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		got := randomMultiBuilder(rand.New(rand.NewSource(seed)), NewAlphabet(), NewAlphabet()).Build()
		want := refBuild(randomMultiBuilder(rand.New(rand.NewSource(seed)), NewAlphabet(), NewAlphabet()))
		if err := diffLTS(got, want); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCollapseMatchesReference checks CollapseTauSCCs against the
// hash-set collapse on random multigraphs with τ-cycles, self-loops and
// parallel edges: same initial state, offsets, edges, labels and AUT bytes.
func TestCollapseMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		l := randomMultiBuilder(rand.New(rand.NewSource(seed)), NewAlphabet(), NewAlphabet()).Build()
		scc := TauSCCs(l)
		got, stateOf := CollapseTauSCCs(l, scc)
		if err := diffLTS(got, refCollapse(l, scc)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if &stateOf[0] != &scc.Comp[0] {
			t.Fatalf("seed %d: stateOf is not scc.Comp", seed)
		}
	}
}

// TestCollapseKeepsActionsBeyond16Bits: actions whose IDs agree in their
// low 16 bits are still distinct transitions. A packed key that truncated
// the action to 16 bits merged the edges 0 --2--> 1 and 0 --65538--> 1.
func TestCollapseKeepsActionsBeyond16Bits(t *testing.T) {
	acts := NewAlphabet()
	for acts.Len() <= 1<<16+2 {
		acts.ID(fmt.Sprintf("a%d", acts.Len()))
	}
	b := NewBuilder(acts)
	b.SetInit(0)
	b.AddID(0, 2, 1)
	b.AddID(0, 1<<16+2, 1)
	b.AddID(0, 2, 1)
	l := b.Build()
	col, _ := CollapseTauSCCs(l, TauSCCs(l))
	succ := col.Succ(col.Init)
	if len(succ) != 2 || succ[0].Action != 2 || succ[1].Action != 1<<16+2 {
		t.Fatalf("collapsed row %+v, want actions 2 and 65538", succ)
	}
}

// TestProjectClassMap projects onto a hand-made class map: inert τ edges
// vanish, crossing τ and visible self-loops stay, and the first edge per
// (target, action) keeps its position and label.
func TestProjectClassMap(t *testing.T) {
	acts, labels := NewAlphabet(), NewAlphabet()
	a, l1, l2 := acts.ID("a"), LabelID(labels.ID("L1")), LabelID(labels.ID("L2"))
	b := NewBuilder(acts)
	b.SetLabels(labels)
	b.SetInit(1)
	b.AddFull(0, Tau, NoLabel, 1) // inert: 0 and 1 share class 0
	b.AddFull(1, a, l1, 1)        // visible self-loop on class 0
	b.AddFull(0, Tau, l2, 2)      // crossing τ
	b.AddFull(1, a, l2, 0)        // duplicate of 1 --a--> 1, label L2 lost
	b.AddFull(2, a, l2, 0)
	q := Project(b.Build(), []int32{0, 0, 1}, 2)
	want := [][]Transition{
		{{Action: Tau, Label: l2, Dst: 1}, {Action: a, Label: l1, Dst: 0}},
		{{Action: a, Label: l2, Dst: 0}},
	}
	if q.Init != 0 || q.NumStates() != 2 || q.NumTransitions() != 3 {
		t.Fatalf("init %d, %d states, %d transitions", q.Init, q.NumStates(), q.NumTransitions())
	}
	for s, row := range want {
		got := q.Succ(int32(s))
		if len(got) != len(row) {
			t.Fatalf("row %d = %+v, want %+v", s, got, row)
		}
		for i := range row {
			if got[i] != row[i] {
				t.Fatalf("row %d = %+v, want %+v", s, got, row)
			}
		}
	}
	if cap(q.edges) != len(q.edges) {
		t.Fatalf("edge array keeps %d slots for %d edges", cap(q.edges), len(q.edges))
	}
}

// BenchmarkBuild measures adding 200,000 random edges to a Builder and
// grouping them by source with Build's counting sort.
func BenchmarkBuild(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const n, m = 50000, 200000
	src, dst := make([]int, m), make([]int, m)
	for i := range src {
		src[i], dst[i] = r.Intn(n), r.Intn(n)
	}
	acts := NewAlphabet()
	a := acts.ID("a")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(acts)
		bl.AddStates(n)
		for j := range src {
			bl.AddID(src[j], a, dst[j])
		}
		if bl.Build().NumTransitions() != m {
			b.Fatal("lost edges")
		}
	}
}

// projected keeps BenchmarkProject's result reachable.
var projected *LTS

// BenchmarkProject measures projecting 200,000 random edges, half of them
// τ, onto classes of four consecutive states.
func BenchmarkProject(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const n, m = 50000, 200000
	acts := NewAlphabet()
	names := []string{TauName, TauName, "a", "b"}
	bl := NewBuilder(acts)
	bl.AddStates(n)
	for j := 0; j < m; j++ {
		bl.Add(r.Intn(n), names[r.Intn(len(names))], r.Intn(n))
	}
	l := bl.Build()
	classOf := make([]int32, n)
	for s := range classOf {
		classOf[s] = int32(s / 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		projected = Project(l, classOf, n/4)
	}
}
