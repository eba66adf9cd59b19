package bisim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/lts"
	"repro/internal/machine"
)

// refQuotient is the quotient as a hash set of packed (block, block,
// action) keys, grouped into rows by a stable comparison sort. The key
// keeps only the low 16 bits of the action and lets blocks at or above
// 2²⁴ overlap, so it is a faithful reference only for alphabets below
// 65,536 actions and fewer than 2²⁴ blocks.
func refQuotient(l *lts.LTS, p *Partition) *lts.LTS {
	type edge struct {
		src int32
		tr  lts.Transition
	}
	var edges []edge
	seen := make(map[uint64]struct{}, l.NumTransitions())
	for s := 0; s < l.NumStates(); s++ {
		bs := p.BlockOf[s]
		for _, tr := range l.Succ(int32(s)) {
			bd := p.BlockOf[tr.Dst]
			if lts.IsTau(tr.Action) && bs == bd {
				continue
			}
			key := uint64(uint32(bs))<<40 ^ uint64(uint32(bd))<<16 ^ uint64(uint16(tr.Action))
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			edges = append(edges, edge{bs, lts.Transition{Action: tr.Action, Label: tr.Label, Dst: bd}})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].src < edges[j].src })
	b := lts.NewCSRBuilder(l.Acts, l.Labels)
	for s, i := int32(0), 0; int(s) < p.Num; s++ {
		j := i
		for j < len(edges) && edges[j].src == s {
			j++
		}
		row := make([]lts.Transition, 0, j-i)
		for _, e := range edges[i:j] {
			row = append(row, e.tr)
		}
		if err := b.EmitRow(s, row); err != nil {
			panic(err)
		}
		i = j
	}
	return b.Build(p.Num, p.BlockOf[l.Init])
}

// diffLTS describes the first difference between two systems — initial
// state, state count, rows (which fix the CSR offsets), edges with their
// labels, or the AUT rendering — or returns nil when they are identical.
func diffLTS(got, want *lts.LTS) error {
	if got.Init != want.Init || got.NumStates() != want.NumStates() || got.NumTransitions() != want.NumTransitions() {
		return fmt.Errorf("init/states/transitions %d/%d/%d, want %d/%d/%d", got.Init, got.NumStates(),
			got.NumTransitions(), want.Init, want.NumStates(), want.NumTransitions())
	}
	for s := int32(0); int(s) < got.NumStates(); s++ {
		g, w := got.Succ(s), want.Succ(s)
		if len(g) != len(w) {
			return fmt.Errorf("state %d: %d edges, want %d", s, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				return fmt.Errorf("state %d edge %d = %+v, want %+v", s, i, g[i], w[i])
			}
		}
	}
	var ga, wa bytes.Buffer
	if err := lts.WriteAUT(&ga, got); err != nil {
		return err
	}
	if err := lts.WriteAUT(&wa, want); err != nil {
		return err
	}
	if !bytes.Equal(ga.Bytes(), wa.Bytes()) {
		return fmt.Errorf("AUT renderings differ")
	}
	return nil
}

// labeledLTS builds a pseudo-random multigraph with τ-cycles, τ and
// visible self-loops, and parallel edges carrying different labels.
func labeledLTS(r *rand.Rand) *lts.LTS {
	acts, labels := lts.NewAlphabet(), lts.NewAlphabet()
	names := []string{lts.TauName, lts.TauName, "a", "b", "c"}
	for _, name := range []string{"t1.L1", "t1.L2", "t2.L5"} {
		labels.ID(name)
	}
	n := 1 + r.Intn(20)
	b := lts.NewBuilder(acts)
	b.SetLabels(labels)
	b.SetInit(r.Intn(n))
	b.AddStates(n)
	label := func() lts.LabelID { return lts.LabelID(r.Intn(labels.Len()+1) - 1) }
	for i, m := 0, r.Intn(4*n+1); i < m; i++ {
		src, dst := r.Intn(n), r.Intn(n)
		if r.Intn(4) == 0 {
			dst = src
		}
		a := acts.ID(names[r.Intn(len(names))])
		for k := r.Intn(3); k >= 0; k-- { // parallel copies, new labels
			b.AddFull(src, a, label(), dst)
		}
	}
	return b.Build()
}

// randomPartition assigns each state of l one of k arbitrary blocks,
// renumbered by first occurrence so that no block is empty.
func randomPartition(r *rand.Rand, l *lts.LTS) *Partition {
	k := 1 + r.Intn(l.NumStates())
	ids := make(map[int]int32)
	p := &Partition{BlockOf: make([]int32, l.NumStates())}
	for s := range p.BlockOf {
		c := r.Intn(k)
		if _, ok := ids[c]; !ok {
			ids[c] = int32(len(ids))
		}
		p.BlockOf[s] = ids[c]
	}
	p.Num = len(ids)
	return p
}

// TestQuotientMatchesReference checks Quotient against the hash-set
// quotient on random multigraphs, for the branching, ≈div and arbitrary
// partitions.
func TestQuotientMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		r := rand.New(rand.NewSource(seed))
		l := labeledLTS(r)
		for _, p := range []*Partition{Branching(l), DivergenceSensitiveBranching(l), randomPartition(r, l)} {
			if err := diffLTS(Quotient(l, p), refQuotient(l, p)); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// explore2x2 explores the implementation of a at 2 threads × 2 ops.
func explore2x2(t testing.TB, a *algorithms.Algorithm) *lts.LTS {
	t.Helper()
	l, err := machine.Explore(a.Build(algorithms.Config{Threads: 2, Ops: 2}),
		machine.Options{Threads: 2, Ops: 2, Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", a.ID, err)
	}
	return l
}

// TestQuotientMatchesReferenceTableII checks the branching and ≈div
// quotients of every Table II implementation at 2×2 against the hash-set
// reference.
func TestQuotientMatchesReferenceTableII(t *testing.T) {
	for _, a := range algorithms.TableII() {
		l := explore2x2(t, a)
		if l.Acts.Len() >= 1<<16 {
			t.Fatalf("%s: %d actions, beyond the reference's 16-bit keys", a.ID, l.Acts.Len())
		}
		for _, p := range []*Partition{Branching(l), DivergenceSensitiveBranching(l)} {
			if err := diffLTS(Quotient(l, p), refQuotient(l, p)); err != nil {
				t.Errorf("%s: %v", a.ID, err)
			}
		}
	}
}

// TestQuotientKeepsActionsBeyond16Bits: actions whose IDs agree in their
// low 16 bits are distinct quotient edges. A packed key that truncated
// the action to 16 bits merged 0 --2--> 1 with 0 --65538--> 1.
func TestQuotientKeepsActionsBeyond16Bits(t *testing.T) {
	acts := lts.NewAlphabet()
	for acts.Len() <= 1<<16+2 {
		acts.ID(fmt.Sprintf("a%d", acts.Len()))
	}
	b := lts.NewBuilder(acts)
	b.SetInit(0)
	b.AddID(0, 2, 1)
	b.AddID(0, 1<<16+2, 1)
	l := b.Build()
	q := Quotient(l, &Partition{BlockOf: []int32{0, 1}, Num: 2})
	succ := q.Succ(q.Init)
	if len(succ) != 2 || succ[0].Action != 2 || succ[1].Action != 1<<16+2 {
		t.Fatalf("quotient row %+v, want actions 2 and 65538", succ)
	}
}

// maxProjectAllocs bounds the allocations of one projection: the edge
// list, the row offsets and sorted edges of the counting sort, the LTS
// header, the stamp and chain arrays, and the exact-size edge array. It
// must not grow with the edge count.
const maxProjectAllocs = 7

// TestProjectionAllocsConstant holds the τ-SCC collapse and the quotient
// of ms-queue 2×2, and of two disjoint copies of it, to the same constant
// number of allocations — a per-edge map or a growing append would show.
func TestProjectionAllocsConstant(t *testing.T) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	l := explore2x2(t, alg)
	double, _, err := lts.DisjointUnion(l, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []*lts.LTS{l, double} {
		scc := lts.TauSCCs(u)
		p := Branching(u)
		collapse := testing.AllocsPerRun(5, func() { lts.CollapseTauSCCs(u, scc) })
		quotient := testing.AllocsPerRun(5, func() { Quotient(u, p) })
		if collapse > maxProjectAllocs || quotient > maxProjectAllocs {
			t.Errorf("%d transitions: collapse %v allocs, quotient %v allocs, want ≤ %d",
				u.NumTransitions(), collapse, quotient, maxProjectAllocs)
		}
	}
}
