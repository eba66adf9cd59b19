package machine

import (
	"context"
	"testing"

	"repro/internal/lts"
)

// TestDecodeKeysAllocFree pins the decode side of the BFS hot path:
// popping a state off the frontier (decode of its key) must not
// allocate, with the legacy codec or the packed record codec. The keys
// come from the reference explorer; the packed ones are re-encodings of
// the same states.
func TestDecodeKeysAllocFree(t *testing.T) {
	p := counterProgram()
	e := &refExplorer{
		ctx:  context.Background(),
		prog: p,
		opt:  Options{Threads: 2, Ops: 2, Workers: 1},
		ai:   newActionInterner(p, lts.NewAlphabet(), lts.NewAlphabet()),
		ids:  make(map[string]int32),
	}
	if _, _, err := e.run(DefaultMaxStates); err != nil {
		t.Fatal(err)
	}
	if len(e.keys) < 10 {
		t.Fatalf("expected a non-trivial state space, got %d states", len(e.keys))
	}
	cdc, err := newCodec(p, Options{Threads: 2, Ops: 2})
	if err != nil {
		t.Fatal(err)
	}
	cur := newScratchState(p, 2)
	var packed [][]byte
	for _, k := range e.keys {
		decode(k, cur)
		packed = append(packed, cdc.encode(nil, cur, len(cur.g.Heap)))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, k := range e.keys {
			decode(k, cur)
		}
		for _, k := range packed {
			cdc.decode(k, cur)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding all %d interned keys allocated %.1f times per sweep; want 0", len(e.keys), allocs)
	}
}
