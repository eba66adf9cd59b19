package statecodec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the word-at-a-time writer and reader (slot by
// slot and by record) against the
// byte-at-a-time reference they replaced (bitref_test.go).

// diffSlots covers the slot shapes that matter: 0-bit singletons
// (including at the int32 extremes), one bit, the legacy byte window,
// a multi-byte slot, and the full 32-bit range.
var diffSlots = []Slot{
	MakeSlot(0, 0),
	MakeSlot(-5, -5),
	MakeSlot(math.MinInt32, math.MinInt32),
	MakeSlot(math.MaxInt32, math.MaxInt32),
	MakeSlot(0, 1),
	MakeSlot(-64, 191),
	MakeSlot(-3, 12),
	MakeSlot(0, 1<<20),
	MakeSlot(math.MaxInt32-6, math.MaxInt32),
	MakeSlot(math.MinInt32, math.MaxInt32),
}

// randomLayout draws n slots: mostly from diffSlots, some with random
// bounds.
func randomLayout(rng *rand.Rand, n int) []Slot {
	slots := make([]Slot, n)
	for i := range slots {
		if rng.Intn(4) == 0 {
			a, b := int32(rng.Uint32()), int32(rng.Uint32())
			if rng.Intn(2) == 0 {
				b = a + int32(rng.Intn(1000))
				if b < a {
					b = math.MaxInt32
				}
			}
			slots[i] = MakeSlot(min(a, b), max(a, b))
		} else {
			slots[i] = diffSlots[rng.Intn(len(diffSlots))]
		}
	}
	return slots
}

// randomValue draws an in-range value, favoring the bounds.
func randomValue(rng *rand.Rand, s Slot) int32 {
	switch rng.Intn(4) {
	case 0:
		return s.Lo
	case 1:
		return s.Hi
	}
	return s.Lo + int32(uint32(rng.Uint64()%(uint64(uint32(s.Hi-s.Lo))+1)))
}

// recordSplit cuts slots [0, n) into consecutive records and each
// record's values into a head and a tail part.
type recordPart struct {
	rec        *Record
	start, end int // slot range
	split      int // head length
}

func randomRecords(rng *rand.Rand, slots []Slot) []recordPart {
	var parts []recordPart
	for start := 0; start < len(slots); {
		end := start + 1 + rng.Intn(min(12, len(slots)-start))
		parts = append(parts, recordPart{
			rec:   NewRecord(slots[start:end]...),
			start: start, end: end,
			split: rng.Intn(end - start + 1),
		})
		start = end
	}
	return parts
}

// encodeAll writes vals three ways and returns the three encodings.
func encodeAll(slots []Slot, vals []int32, parts []recordPart) (ref, put, rec []byte) {
	var rw refBitWriter
	rw.Reset(nil)
	for i, s := range slots {
		rw.Put(s, vals[i])
	}
	ref = append([]byte(nil), rw.Finish()...)

	var w BitWriter
	w.Reset(nil)
	for i, s := range slots {
		w.Put(s, vals[i])
	}
	put = append([]byte(nil), w.Finish()...)

	w.Reset(nil)
	for _, p := range parts {
		v := vals[p.start:p.end]
		w.PutRecord(p.rec, v[:p.split], v[p.split:])
	}
	rec = append([]byte(nil), w.Finish()...)
	return ref, put, rec
}

// TestWordCodecMatchesReference packs random values through random
// layouts and checks that Put and PutRecord produce the reference's
// bytes exactly, and that Get and GetRecord
// recover every value.
func TestWordCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		slots := randomLayout(rng, 1+rng.Intn(40))
		vals := make([]int32, len(slots))
		for i, s := range slots {
			vals[i] = randomValue(rng, s)
		}
		parts := randomRecords(rng, slots)
		ref, put, rec := encodeAll(slots, vals, parts)
		if !bytes.Equal(put, ref) || !bytes.Equal(rec, ref) {
			t.Fatalf("trial %d: encodings differ:\nref %x\nput %x\nrec %x", trial, ref, put, rec)
		}

		var rr refBitReader
		rr.Reset(ref)
		var r BitReader
		r.Reset(ref)
		for i, s := range slots {
			if a, b := rr.Get(s), r.Get(s); a != vals[i] || b != vals[i] {
				t.Fatalf("trial %d slot %d (%+v): reference got %d, Get %d, want %d", trial, i, s, a, b, vals[i])
			}
		}
		r.Reset(ref)
		got := make([]int32, len(vals))
		for _, p := range parts {
			g := got[p.start:p.end]
			r.GetRecord(p.rec, g[:p.split], g[p.split:])
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("trial %d slot %d (%+v): record decode got %d, want %d", trial, i, slots[i], got[i], vals[i])
			}
		}
	}
}

// panicOf runs f and returns its panic message ("" when it returned).
func panicOf(f func()) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	f()
	return ""
}

// TestOutOfRangePanicsMatchReference puts out-of-range values into
// random layouts and checks every write path panics with the
// reference's message, naming the first offending slot.
func TestOutOfRangePanicsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	checked := 0
	for trial := 0; trial < 3000; trial++ {
		slots := randomLayout(rng, 1+rng.Intn(30))
		vals := make([]int32, len(slots))
		for i, s := range slots {
			vals[i] = randomValue(rng, s)
		}
		// Push one or two values just outside their slots; a full-range
		// slot has no outside.
		for k := 0; k < 1+rng.Intn(2); k++ {
			i := rng.Intn(len(slots))
			s := slots[i]
			switch {
			case s.Lo > math.MinInt32 && (s.Hi == math.MaxInt32 || rng.Intn(2) == 0):
				vals[i] = s.Lo - 1 - int32(rng.Intn(int(min(int64(s.Lo)-math.MinInt32, 1000))))
			case s.Hi < math.MaxInt32:
				vals[i] = s.Hi + 1
			}
		}
		parts := randomRecords(rng, slots)
		want := panicOf(func() {
			var w refBitWriter
			for i, s := range slots {
				w.Put(s, vals[i])
			}
		})
		put := panicOf(func() {
			var w BitWriter
			for i, s := range slots {
				w.Put(s, vals[i])
			}
		})
		rec := panicOf(func() {
			var w BitWriter
			for _, p := range parts {
				v := vals[p.start:p.end]
				w.PutRecord(p.rec, v[:p.split], v[p.split:])
			}
		})
		if put != want || rec != want {
			t.Fatalf("trial %d: panics differ:\nref %q\nput %q\nrec %q", trial, want, put, rec)
		}
		if want != "" {
			checked++
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d trials exercised an out-of-range panic", checked)
	}
}

// BenchmarkWriter compares writing one 60-slot random layout with
// PutRecord and with the reference's slot-by-slot Put.
func BenchmarkWriter(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	slots := randomLayout(rng, 60)
	vals := make([]int32, len(slots))
	for i, s := range slots {
		vals[i] = randomValue(rng, s)
	}
	rec := NewRecord(slots...)
	buf := make([]byte, 0, 512)
	b.Run("record", func(b *testing.B) {
		var w BitWriter
		for i := 0; i < b.N; i++ {
			w.Reset(buf)
			w.PutRecord(rec, vals, nil)
			buf = w.Finish()
		}
	})
	b.Run("reference", func(b *testing.B) {
		var w refBitWriter
		for i := 0; i < b.N; i++ {
			w.Reset(buf)
			for j, s := range slots {
				w.Put(s, vals[j])
			}
			buf = w.Finish()
		}
	})
}
