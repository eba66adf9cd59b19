package machine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/statecodec"
)

// statesEqual compares two decoded states field by field.
func statesEqual(a, b *state) bool {
	if len(a.g.Vars) != len(b.g.Vars) || len(a.g.Heap) != len(b.g.Heap) || len(a.th) != len(b.th) {
		return false
	}
	for i := range a.g.Vars {
		if a.g.Vars[i] != b.g.Vars[i] {
			return false
		}
	}
	for i := range a.g.Heap {
		if a.g.Heap[i] != b.g.Heap[i] {
			return false
		}
	}
	for i := range a.th {
		x, y := a.th[i], b.th[i]
		if x.status != y.status || x.method != y.method || x.arg != y.arg ||
			x.pc != y.pc || x.ret != y.ret || x.ops != y.ops {
			return false
		}
		for li := range x.locals {
			if x.locals[li] != y.locals[li] {
				return false
			}
		}
	}
	return true
}

// TestPackedCodecRoundTrip drives 500 random canonical states per
// example program through the packed codec and checks three properties:
// decode(encode(s)) == s, re-encoding the decode reproduces the same
// bytes (determinism), and packed keys collide exactly when legacy keys
// do (injectivity agreement, so state identity is codec-independent).
func TestPackedCodecRoundTrip(t *testing.T) {
	programs := []*Program{
		quickProgram(3, 2, []VarKind{KVal, KPtr, KTagged}),
		quickProgram(1, 0, []VarKind{KVal}),
		quickProgram(4, 3, []VarKind{KPtr, KTagged, KVal, KPtr}),
		counterProgram(),
		bigProgram(),
	}
	const heapCap = 6
	for pi, p := range programs {
		p := p
		p.HeapCap = heapCap
		t.Run(fmt.Sprintf("%s-%d", p.Name, pi), func(t *testing.T) {
			cdc, err := newCodec(p, Options{Threads: 2, Ops: 2})
			if err != nil {
				t.Fatal(err)
			}
			if cdc.name() != "packed" {
				t.Fatalf("auto encoding resolved to %q", cdc.name())
			}
			leg := codec{}
			rng := rand.New(rand.NewSource(int64(pi) + 1))
			can := newCanonicalizer(p, heapCap+1)
			p2l := map[string]string{} // packed key -> legacy key
			l2p := map[string]string{} // legacy key -> packed key
			for trial := 0; trial < 500; trial++ {
				st := randomState(rng, p, heapCap)
				can.run(st)
				packed := append([]byte(nil), cdc.encode(nil, st, can.live)...)
				legacy := append([]byte(nil), leg.encode(nil, st, can.live)...)
				got := &state{
					g:  &Global{Vars: make([]int32, len(p.Globals.Kinds)), Heap: make([]Node, heapCap+1)},
					th: []thread{{locals: make([]int32, p.NLocals)}},
				}
				cdc.decode(packed, got)
				if !statesEqual(st, got) {
					t.Fatalf("trial %d: decode(encode(s)) != s", trial)
				}
				if again := cdc.encode(nil, got, len(got.g.Heap)); !bytes.Equal(again, packed) {
					t.Fatalf("trial %d: re-encode differs: %x vs %x", trial, again, packed)
				}
				if prev, ok := p2l[string(packed)]; ok && prev != string(legacy) {
					t.Fatalf("trial %d: one packed key maps to two legacy keys", trial)
				}
				p2l[string(packed)] = string(legacy)
				if prev, ok := l2p[string(legacy)]; ok && prev != string(packed) {
					t.Fatalf("trial %d: one legacy key maps to two packed keys", trial)
				}
				l2p[string(legacy)] = string(packed)
			}
		})
	}
}

// TestPackedSmallerThanLegacy pins the point of the packed codec: on the
// property-test schema its keys are strictly smaller than the legacy
// one-byte-per-slot keys.
func TestPackedSmallerThanLegacy(t *testing.T) {
	p := quickProgram(3, 2, []VarKind{KVal, KPtr, KTagged})
	p.HeapCap = 6
	cdc, err := newCodec(p, Options{Threads: 2, Ops: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	can := newCanonicalizer(p, 7)
	st := randomState(rng, p, 6)
	can.run(st)
	packed := cdc.encode(nil, st, can.live)
	legacy := encode(nil, st)
	if len(packed) >= len(legacy) {
		t.Fatalf("packed key (%dB) not smaller than legacy key (%dB)", len(packed), len(legacy))
	}
}

// TestNewCodecFallbacks pins codec resolution: legacy by request, an
// unknown encoding errors, and a mis-shaped layout is dropped for the
// structural one instead of mis-encoding.
func TestNewCodecFallbacks(t *testing.T) {
	p := quickProgram(3, 2, []VarKind{KVal, KPtr, KTagged})
	p.HeapCap = 6
	if cdc, err := newCodec(p, Options{Encoding: EncodingLegacy}); err != nil || cdc.name() != "legacy" {
		t.Fatalf("legacy request: %v %q", err, cdc.name())
	}
	if _, err := newCodec(p, Options{Encoding: "zip"}); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	other := quickProgram(1, 0, []VarKind{KVal})
	other.HeapCap = 2
	misfit := StructuralLayout(other, 2, 2)
	cdc, err := newCodec(p, Options{Threads: 2, Ops: 2, Layout: misfit})
	if err != nil {
		t.Fatal(err)
	}
	if cdc.lay == misfit {
		t.Fatal("mis-shaped layout was not discarded")
	}
	if cdc.lay == nil || len(cdc.lay.Globals) != len(p.Globals.Kinds) {
		t.Fatalf("fallback layout does not match the program: %+v", cdc.lay)
	}
}

// encodePanic encodes st and returns the key and the panic message
// ("" when the encode returned).
func encodePanic(encode func() []byte) (key []byte, msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	return append([]byte(nil), encode()...), ""
}

// TestRecordCodecMatchesReference checks the record codec against the
// slot-by-slot reference codec (explore_ref_test.go) on random canonical
// states: the structural layout (one-word records), a widened layout
// whose heap-cell and thread records span several words, and a
// narrowed layout that some values overflow, where both codecs must
// panic with the same message.
func TestRecordCodecMatchesReference(t *testing.T) {
	p := quickProgram(3, 3, []VarKind{KVal, KPtr, KTagged})
	p.HeapCap = 6
	structural := StructuralLayout(p, 2, 2)
	remap := func(s statecodec.Slot) statecodec.Layout {
		lay := *structural
		lay.Globals = slices.Clone(lay.Globals)
		lay.Locals = slices.Clone(lay.Locals)
		for i, k := range p.Globals.Kinds {
			if k == KVal {
				lay.Globals[i] = s
			}
		}
		for i := range lay.Locals {
			if p.localKind(i) == KVal {
				lay.Locals[i] = s
			}
		}
		for _, f := range []int{statecodec.NodeVal, statecodec.NodeKey, statecodec.NodeC, statecodec.NodeD} {
			lay.Node[f] = s
		}
		lay.Thread[statecodec.ThreadRet] = s
		return lay
	}
	wide := remap(statecodec.MakeSlot(math.MinInt32, math.MaxInt32))
	narrow := remap(statecodec.MakeSlot(0, 2))
	for _, tc := range []struct {
		name     string
		lay      *statecodec.Layout
		oneWord  bool // heap-cell and thread records fit one 56-bit word
		overflow bool
	}{
		{"structural", structural, true, false},
		{"wide", &wide, false, false},
		{"narrow", &narrow, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cdc, ref := packedCodec(tc.lay), refCodec{lay: tc.lay}
			nb, tb := slotBits(tc.lay.Node[:]), slotBits(tc.lay.Thread[:])+slotBits(tc.lay.Locals)
			if (nb <= 56 && tb <= 56) != tc.oneWord {
				t.Fatalf("node/thread records of %d/%d bits, want one word: %v", nb, tb, tc.oneWord)
			}
			rng := rand.New(rand.NewSource(5))
			can := newCanonicalizer(p, p.HeapCap+1)
			panics := 0
			for trial := 0; trial < 2000; trial++ {
				st := randomState(rng, p, p.HeapCap)
				can.run(st)
				got, gotMsg := encodePanic(func() []byte { return cdc.encode(nil, st, can.live) })
				want, wantMsg := encodePanic(func() []byte { return ref.encode(nil, st) })
				if gotMsg != wantMsg {
					t.Fatalf("trial %d: panic %q, reference %q", trial, gotMsg, wantMsg)
				}
				if wantMsg != "" {
					panics++
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("trial %d: key %x, reference %x", trial, got, want)
				}
				dec := newScratchState(p, 1)
				cdc.decode(got, dec)
				if !statesEqual(st, dec) {
					t.Fatalf("trial %d: decode(encode(s)) != s", trial)
				}
			}
			if tc.overflow != (panics > 0) {
				t.Fatalf("%d of 2000 encodes panicked", panics)
			}
		})
	}
}

// slotBits is the packed width of slots.
func slotBits(slots []statecodec.Slot) int {
	n := 0
	for _, s := range slots {
		n += int(s.Bits)
	}
	return n
}

// encodeBenchStates is a fixed batch of canonical random states of the
// property-test schema, for BenchmarkEncode.
func encodeBenchStates(b *testing.B) (*Program, []*state, []int) {
	p := quickProgram(3, 3, []VarKind{KVal, KPtr, KTagged})
	p.HeapCap = 6
	rng := rand.New(rand.NewSource(3))
	can := newCanonicalizer(p, p.HeapCap+1)
	var sts []*state
	var live []int
	for i := 0; i < 256; i++ {
		st := randomState(rng, p, p.HeapCap)
		can.run(st)
		sts = append(sts, st)
		live = append(live, can.live)
	}
	return p, sts, live
}

// BenchmarkEncode measures the packed codec's encode and decode of one
// state, against the slot-by-slot reference codec it replaced.
func BenchmarkEncode(b *testing.B) {
	p, sts, live := encodeBenchStates(b)
	cdc, err := newCodec(p, Options{Threads: 2, Ops: 2})
	if err != nil {
		b.Fatal(err)
	}
	ref, err := refNewCodec(p, Options{Threads: 2, Ops: 2})
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = cdc.encode(buf[:0], sts[i%len(sts)], live[i%len(sts)])
		}
	})
	b.Run("slot-by-slot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = ref.encode(buf[:0], sts[i%len(sts)])
		}
	})
	keys := make([][]byte, len(sts))
	for i, st := range sts {
		keys[i] = cdc.encode(nil, st, live[i])
	}
	cur := newScratchState(p, len(sts[0].th))
	b.Run("decode-record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cdc.decode(keys[i%len(keys)], cur)
		}
	})
	b.Run("decode-slot-by-slot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref.decode(keys[i%len(keys)], cur)
		}
	})
}
