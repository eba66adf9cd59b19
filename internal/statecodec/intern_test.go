package statecodec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randomKeys draws n keys of 0–40 bytes (crossing the hash's 8-byte
// word boundaries), with repeats.
func randomKeys(rng *rand.Rand, n int) [][]byte {
	distinct := make([][]byte, n/2+1)
	for i := range distinct {
		k := make([]byte, rng.Intn(41))
		rng.Read(k)
		distinct[i] = k
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = distinct[rng.Intn(len(distinct))]
	}
	return keys
}

// TestTableMatchesMapStore interns the same key sequence into the
// hash-once table and the map-based reference store and checks both
// identify keys the same way: equal keys share an entry, distinct keys
// never do, and the lifetime counters agree.
func TestTableMatchesMapStore(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref, _ := refOpenMem(Config{})
	got, _ := OpenMem(Config{})
	refEnt := map[string]*refEntry{}
	gotEnt := map[string]*Entry{}
	for i, k := range randomKeys(rng, 60000) {
		r, g := ref.Intern(k), got.Intern(k)
		if g.Ent == nil || string(got.Key(g.Ent)) != string(k) {
			t.Fatalf("key %d: table returned %+v", i, g)
		}
		prev, ok := gotEnt[string(k)]
		if ok != (refEnt[string(k)] != nil) || (ok && (prev != g.Ent || refEnt[string(k)] != r.Ent)) {
			t.Fatalf("key %d: identity differs from the reference", i)
		}
		if g.New == ok {
			t.Fatalf("key %d: New = %v, seen before = %v", i, g.New, ok)
		}
		if g.Ent.ID == -1 {
			g.Ent.ID = int32(len(gotEnt))
		}
		gotEnt[string(k)], refEnt[string(k)] = g.Ent, r.Ent
	}
	for k, e := range gotEnt {
		if string(got.Key(e)) != k {
			t.Fatalf("entry for %x now holds %x: an entry moved", k, got.Key(e))
		}
	}
	rs, gs := ref.Stats(), got.Stats()
	if rs.Interned != gs.Interned || rs.InternedBytes != gs.InternedBytes {
		t.Fatalf("stats %+v, reference %+v", gs, rs)
	}
}

// TestTableConcurrentIntern races four goroutines over overlapping keys:
// every distinct key must end up with exactly one entry.
func TestTableConcurrentIntern(t *testing.T) {
	var m Meter
	tab := NewTable(&m, nil)
	const n = 4000
	ents := make([][]*Entry, 4)
	var wg sync.WaitGroup
	for g := range ents {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var k [8]byte
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(k[:], uint64((i*7+g*13)%n))
				ents[g] = append(ents[g], tab.Intern(Hash(k[:]), k[:]).Ent)
			}
		}(g)
	}
	wg.Wait()
	byKey := map[uint64]*Entry{}
	for g := range ents {
		for i, e := range ents[g] {
			k := uint64((i*7 + g*13) % n)
			if binary.LittleEndian.Uint64(tab.Key(e)) != k {
				t.Fatalf("goroutine %d: entry for %d holds %x", g, k, tab.Key(e))
			}
			if prev, ok := byKey[k]; ok && prev != e {
				t.Fatalf("key %d has two entries", k)
			}
			byKey[k] = e
		}
	}
	if keys, _ := tab.Stats(); keys != n {
		t.Fatalf("%d entries for %d distinct keys", keys, n)
	}
}

// TestTableSpilledAndReset checks the spilled-key hook and Reset: a key
// the hook resolves comes back as Ref{ID}, and a reset shard forgets
// its keys and returns its bytes to the meter.
func TestTableSpilledAndReset(t *testing.T) {
	var m Meter
	spilled := map[string]int32{"gone": 41}
	tab := NewTable(&m, func(si int, tag uint32, key []byte) (int32, bool) {
		if h := Hash(key); si != shardOf(h) || tag != tagOf(h) {
			t.Errorf("hook called with shard %d tag %x for %q", si, tag, key)
		}
		id, ok := spilled[string(key)]
		return id, ok
	})
	if r := tab.Intern(Hash([]byte("gone")), []byte("gone")); r.Ent != nil || r.ID != 41 {
		t.Fatalf("spilled key: %+v", r)
	}
	k := []byte("kept")
	h := Hash(k)
	r := tab.Intern(h, k)
	if r.Ent == nil || r.Ent.ID != -1 || r.Ent.Tag() != tagOf(h) {
		t.Fatalf("fresh key: %+v", r)
	}
	if m.Resident() <= 0 {
		t.Fatal("table allocations not metered")
	}
	for si := 0; si < NumShards; si++ {
		tab.Reset(si)
	}
	if m.Resident() != 0 {
		t.Fatalf("%d bytes still metered after reset", m.Resident())
	}
	if r2 := tab.Intern(h, k); r2.Ent == nil || r2.Ent == r.Ent {
		t.Fatal("reset shard still resolved its old entry")
	}
}

// TestTableInternAllocs pins "nothing is allocated per key": interning
// 2^16 fresh keys allocates only when a shard's slot array, slab or
// arena fills — a few dozen times per shard, not once per key.
func TestTableInternAllocs(t *testing.T) {
	const n = 1 << 16
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("state-%08d-key", i))
	}
	allocs := testing.AllocsPerRun(2, func() {
		var m Meter
		tab := NewTable(&m, nil)
		for _, k := range keys {
			tab.Intern(Hash(k), k)
		}
	})
	if allocs > n/32 {
		t.Fatalf("interning %d keys allocated %.0f times; want at most %d", n, allocs, n/32)
	}
	t.Logf("%.0f allocations for %d keys", allocs, n)
}

// BenchmarkIntern interns a BFS-like key stream (each key seen about
// three times) into the hash-once table and into the map-based store it
// replaced, on one goroutine and on all.
func BenchmarkIntern(b *testing.B) {
	const distinct = 1 << 15
	rng := rand.New(rand.NewSource(22))
	keys := make([][]byte, 3*distinct)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%016x-%06d", rng.Uint64()%4, rng.Intn(distinct)))
	}
	table := func() func([]byte) {
		s, _ := OpenMem(Config{})
		return func(k []byte) { s.Intern(k) }
	}
	hashMap := func() func([]byte) {
		s, _ := refOpenMem(Config{})
		return func(k []byte) { s.Intern(k) }
	}
	stores := []struct {
		name string
		open func() func([]byte)
	}{{"table", table}, {"map", hashMap}}
	for _, st := range stores {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				intern := st.open()
				for _, k := range keys {
					intern(k)
				}
			}
		})
		b.Run(st.name+"-parallel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				intern := st.open()
				var wg sync.WaitGroup
				const workers = 2
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for j := w; j < len(keys); j += workers {
							intern(keys[j])
						}
					}(w)
				}
				wg.Wait()
			}
		})
	}
}
