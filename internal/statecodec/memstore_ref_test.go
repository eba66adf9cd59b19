package statecodec

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// The map-based in-memory store the hash-once Table replaced (FNV-1a
// for the shard, then Go's map hash; two allocations per new key), kept
// verbatim apart from renaming as the reference for the differential
// test and the baseline of BenchmarkIntern. refEntry and refRef are the
// Entry and Ref of that code, when an entry held its key as a slice.

type refEntry struct {
	ID  int32
	Key []byte
}

type refRef struct {
	Ent *refEntry
	ID  int32
}

// refNumShards is the number of intern-table lock stripes; a power of two
// so shard selection is a mask. The hash only picks the stripe — it
// never influences the produced LTS.
const refNumShards = 64

// refEntryOverhead approximates the resident bookkeeping cost of one hot
// entry beyond its key bytes (Entry struct, map bucket share, pointer).
// Shared with the spilling statestore so resident telemetry is
// comparable across implementations.
const refEntryOverhead = 56

// refByteString views b as a string without copying; interned keys are
// write-once.
func refByteString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// refHash64 is FNV-1a over b. Store implementations share it so shard
// assignment (never state identity) is uniform across backends.
func refHash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

type refMemShard struct {
	mu  sync.Mutex
	hot map[string]*refEntry
	_   [24]byte // pad to a cache line so shard locks don't false-share
}

// refMemStore is the pure in-memory Store: every interned key and every
// frontier level stays resident. It is the default backend of the
// explorer and the only one available to core-layer consumers (the
// library facade without platform wiring, the wasm playground); the
// spilling statestore produces byte-identical LTSs beyond RAM.
type refMemStore struct {
	shards [refNumShards]refMemShard

	resident      atomic.Int64
	peakResident  atomic.Int64
	interned      atomic.Int64
	internedBytes atomic.Int64

	cur  *refMemLevel
	next *refMemLevel
}

// refOpenMem creates an empty in-memory store. The configuration's
// MemBudget and Dir are ignored: nothing ever leaves RAM and no
// filesystem path is touched.
func refOpenMem(Config) (*refMemStore, error) {
	s := &refMemStore{}
	for i := range s.shards {
		s.shards[i].hot = make(map[string]*refEntry)
	}
	s.next = &refMemLevel{}
	return s, nil
}

func (s *refMemStore) addResident(delta int64) {
	r := s.resident.Add(delta)
	for {
		p := s.peakResident.Load()
		if r <= p || s.peakResident.CompareAndSwap(p, r) {
			return
		}
	}
}

// Intern returns the reference for key, creating an unnumbered resident
// entry (ID == -1) on first sight. Safe for concurrent use; the key
// buffer may be reused by the caller after the call returns.
func (s *refMemStore) Intern(key []byte) refRef {
	sh := &s.shards[refHash64(key)&(refNumShards-1)]
	sh.mu.Lock()
	if e, ok := sh.hot[refByteString(key)]; ok {
		sh.mu.Unlock()
		return refRef{Ent: e}
	}
	kc := append([]byte(nil), key...)
	e := &refEntry{ID: -1, Key: kc}
	sh.hot[refByteString(kc)] = e
	sh.mu.Unlock()
	s.interned.Add(1)
	s.internedBytes.Add(int64(len(kc)))
	s.addResident(int64(len(kc)) + refEntryOverhead)
	return refRef{Ent: e}
}

// refMemLevel is one BFS frontier level, entirely resident: key bytes
// back to back in buf, with cumulative end offsets (one per key).
type refMemLevel struct {
	n    int
	offs []int64
	buf  []byte
}

// Len is the number of states in the level.
func (l *refMemLevel) Len() int { return l.n }

// Chunk returns the encoded keys of states [start, end) of the level.
// The returned slices alias the level buffer and the reader's Keys
// array; they are valid until the next Chunk call on the same reader.
func (l *refMemLevel) Chunk(start, end int, cr *ChunkReader) ([][]byte, error) {
	var base int64
	if start > 0 {
		base = l.offs[start-1]
	}
	cr.Keys = cr.Keys[:0]
	prev := base
	for i := start; i < end; i++ {
		e := l.offs[i]
		cr.Keys = append(cr.Keys, l.buf[prev:e])
		prev = e
	}
	return cr.Keys, nil
}

// PushFrontier appends one state key to the level under construction.
// Single-threaded (merge only).
func (s *refMemStore) PushFrontier(key []byte) error {
	b := s.next
	b.buf = append(b.buf, key...)
	b.offs = append(b.offs, int64(len(b.buf)))
	b.n++
	s.addResident(int64(len(key)))
	return nil
}

// NextLevel seals the level under construction for reading and releases
// the previously returned level. Single-threaded (explorer loop only).
func (s *refMemStore) NextLevel() (Level, error) {
	if s.cur != nil {
		s.addResident(-int64(len(s.cur.buf)))
		s.cur.buf = nil
		s.cur = nil
	}
	s.cur = s.next
	s.next = &refMemLevel{}
	return s.cur, nil
}

// EndLevel is a no-op: the in-memory store has nothing to shed.
func (s *refMemStore) EndLevel() error { return nil }

// Stats snapshots the store's telemetry; the spill counters are always
// zero.
func (s *refMemStore) Stats() Stats {
	return Stats{
		Interned:          s.interned.Load(),
		InternedBytes:     s.internedBytes.Load(),
		PeakResidentBytes: s.peakResident.Load(),
	}
}

// Close is a no-op; the store holds no resources beyond the heap.
func (s *refMemStore) Close() error { return nil }
