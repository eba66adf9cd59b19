package machine

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestTauCyclesKeepsPCsBeyond8Bits: two distinct solo loops, {1,2} and
// {257,258}, whose pcs agree modulo 256. Both must be reported; a cycle
// key that truncates pcs to a byte merges them into one.
func TestTauCyclesKeepsPCsBeyond8Bits(t *testing.T) {
	body := make([]Stmt, 300)
	for pc := range body {
		body[pc] = Stmt{Exec: func(c *Ctx) { c.Return(ValOK) }}
	}
	loop := func(a, b int) {
		body[a] = Stmt{Exec: func(c *Ctx) { c.Goto(b) }}
		body[b] = Stmt{Exec: func(c *Ctx) { c.Goto(a) }}
	}
	body[0] = Stmt{Exec: func(c *Ctx) {
		c.Goto(1)
		c.Goto(257)
	}}
	loop(1, 2)
	loop(257, 258)
	p := &Program{Name: "wide", Methods: []Method{{Name: "Spin", Body: body}}}

	got := NewPilot(p, PilotOptions{Threads: 1, Ops: 1}).TauCycles()
	want := []TauCycle{
		{Method: "Spin", PCs: []int{1, 2}, Labels: []string{"Spin.1", "Spin.2"}},
		{Method: "Spin", PCs: []int{257, 258}, Labels: []string{"Spin.257", "Spin.258"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TauCycles = %+v, want %+v", got, want)
	}
}

// spinProgram is a one-method program whose statement 0 spins solo;
// init and heapCap shape the fault cases below.
func spinProgram(init func(*Global), heapCap int) *Program {
	return &Program{
		Name:    "faulty",
		Globals: Schema{Names: []string{"x"}, Kinds: []VarKind{KVal}},
		HeapCap: heapCap,
		Init:    init,
		Methods: []Method{{Name: "Spin", Body: []Stmt{{Exec: func(c *Ctx) { c.Goto(0) }}}}},
	}
}

// TestPilotFaultsRefuteClaims: a pilot that collected no state — the
// program's Init faults, or its schema is oversized — reports no
// τ-cycles and refutes every mutual-exclusion and independence claim
// with a PilotError instead of accepting it vacuously.
func TestPilotFaultsRefuteClaims(t *testing.T) {
	for name, p := range map[string]*Program{
		"init-panics": spinProgram(func(g *Global) { panic("boom") }, 0),
		"oversized":   spinProgram(nil, 256),
	} {
		pl := NewPilot(p, PilotOptions{})
		if c := pl.TauCycles(); c != nil {
			t.Errorf("%s: TauCycles = %+v, want none", name, c)
		}
		var pe *PilotError
		if err := pl.MutualExclusion(func(mi, pc int) bool { return false }); !errors.As(err, &pe) {
			t.Errorf("%s: MutualExclusion = %v, want a PilotError", name, err)
		}
		if err := pl.Independence(func(m1, pc1, m2, pc2 int) bool { return false }); !errors.As(err, &pe) {
			t.Errorf("%s: Independence = %v, want a PilotError", name, err)
		}
	}
	// The same program with a well-behaved Init and a small heap is
	// explored, and its solo spin is found.
	pl := NewPilot(spinProgram(func(g *Global) { g.Vars[0] = 1 }, 2), PilotOptions{})
	if err := pl.MutualExclusion(func(mi, pc int) bool { return false }); err != nil {
		t.Fatalf("healthy program: MutualExclusion = %v", err)
	}
	if c := pl.TauCycles(); len(c) != 1 {
		t.Fatalf("healthy program: TauCycles = %+v, want the spin", c)
	}
}

// rawField draws an int32 that is often small, often at an encoding
// boundary and otherwise uniform over the full range.
func rawField(rng *rand.Rand) int32 {
	edges := []int32{0, 1, -1, 63, 64, -64, -65, 127, 128, 8191, 8192, -8193,
		1 << 20, -1 << 20, 1<<27 - 1, 1 << 27, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1}
	switch rng.Intn(3) {
	case 0:
		return int32(rng.Intn(5)) - 1
	case 1:
		return edges[rng.Intn(len(edges))]
	}
	return int32(rng.Uint32())
}

// randomRawState fills a state shaped for p with random field values.
// The heap above a random high-water mark stays zero, as encodeRaw
// assumes of canonical states.
func randomRawState(rng *rand.Rand, p *Program, threads int) *state {
	st := newScratchState(p, threads)
	for i := range st.g.Vars {
		st.g.Vars[i] = rawField(rng)
	}
	hw := rng.Intn(len(st.g.Heap))
	for i := 1; i <= hw; i++ {
		n := &st.g.Heap[i]
		*n = Node{Kind: rawField(rng), Val: rawField(rng), Key: rawField(rng), Next: rawField(rng),
			A: rawField(rng), B: rawField(rng), C: rawField(rng), D: rawField(rng),
			Mark: rng.Intn(2) == 0, Lock: rawField(rng)}
	}
	for i := range st.th {
		th := &st.th[i]
		th.status, th.method, th.arg = rawField(rng), rawField(rng), rawField(rng)
		th.pc, th.ret, th.ops = rawField(rng), rawField(rng), rawField(rng)
		for j := range th.locals {
			th.locals[j] = rawField(rng)
		}
	}
	return st
}

// TestRawCodecRoundTripInjective: encodeRaw/decodeRaw round-trip every
// state over the full int32 range (MinInt32 and MaxInt32 included), and
// distinct states — or one state viewed from distinct threads — never
// share an encoding (decode ∘ encode = id already implies injectivity;
// the map re-checks it directly).
func TestRawCodecRoundTripInjective(t *testing.T) {
	p := &Program{
		Name:    "raw",
		Globals: Schema{Names: []string{"a", "b"}, Kinds: []VarKind{KVal, KPtr}},
		HeapCap: 3,
		NLocals: 2,
	}
	const threads = 2
	rng := rand.New(rand.NewSource(1))
	seen := map[string]*state{}
	got := newScratchState(p, threads)
	for i := 0; i < 20000; i++ {
		st := randomRawState(rng, p, threads)
		// Mutate one field by one to probe near neighbours too.
		if i%2 == 1 {
			st.th[rng.Intn(threads)].locals[rng.Intn(p.NLocals)]++
		}
		key := encodeRaw(nil, st, -1)
		decodeRaw(key, got)
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("round trip: decoded %+v, want %+v", got, st)
		}
		if again := encodeRaw(nil, got, -1); string(again) != string(key) {
			t.Fatalf("re-encoding differs")
		}
		if prev, ok := seen[string(key)]; ok && !reflect.DeepEqual(prev, st) {
			t.Fatalf("two distinct states share the encoding %x", key)
		}
		seen[string(key)] = st
		if v0, v1 := string(encodeRaw(nil, st, 0)), string(encodeRaw(nil, st, 1)); v0 == v1 || v0 == string(key) || v1 == string(key) {
			t.Fatalf("views of one state share an encoding")
		}
	}
}
