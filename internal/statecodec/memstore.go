package statecodec

// memStore is the pure in-memory Store: every interned key and every
// frontier level stays resident. It is the default backend of the
// explorer and the only one available to core-layer consumers (the
// library facade without platform wiring, the wasm playground); the
// spilling statestore produces byte-identical LTSs beyond RAM.
type memStore struct {
	meter Meter
	table *Table

	cur  *memLevel
	next *memLevel
}

// OpenMem creates an empty in-memory store. The configuration's
// MemBudget and Dir are ignored: nothing ever leaves RAM and no
// filesystem path is touched.
func OpenMem(Config) (Store, error) {
	s := &memStore{next: &memLevel{}}
	s.table = NewTable(&s.meter, nil)
	return s, nil
}

// Intern returns the reference for key, creating an unnumbered resident
// entry (ID == -1) on first sight. Safe for concurrent use; the key
// buffer may be reused by the caller after the call returns.
func (s *memStore) Intern(key []byte) Ref {
	return s.table.Intern(Hash(key), key)
}

// Key returns the encoded state of a resident entry.
func (s *memStore) Key(e *Entry) []byte { return s.table.Key(e) }

// memLevel is one BFS frontier level, entirely resident: key bytes
// back to back in buf, with cumulative end offsets (one per key).
type memLevel struct {
	n    int
	offs []int64
	buf  []byte
}

// Len is the number of states in the level.
func (l *memLevel) Len() int { return l.n }

// Chunk returns the encoded keys of states [start, end) of the level.
// The returned slices alias the level buffer and the reader's Keys
// array; they are valid until the next Chunk call on the same reader.
func (l *memLevel) Chunk(start, end int, cr *ChunkReader) ([][]byte, error) {
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
func (s *memStore) PushFrontier(key []byte) error {
	b := s.next
	b.buf = append(b.buf, key...)
	b.offs = append(b.offs, int64(len(b.buf)))
	b.n++
	return nil
}

// NextLevel seals the level under construction for reading and releases
// the previously returned level. Single-threaded (explorer loop only).
func (s *memStore) NextLevel() (Level, error) {
	// Frontier bytes are metered per sealed level rather than per push:
	// pushes are the merge's hottest store call, and nothing reads the
	// meter in between.
	s.meter.Add(int64(len(s.next.buf)))
	old := s.cur
	s.cur, s.next = s.next, &memLevel{}
	if old != nil {
		// The released level's buffers carry the next level.
		s.meter.Add(-int64(len(old.buf)))
		s.next.buf, s.next.offs = old.buf[:0], old.offs[:0]
	}
	return s.cur, nil
}

// EndLevel is a no-op: the in-memory store has nothing to shed.
func (s *memStore) EndLevel() error { return nil }

// Stats snapshots the store's telemetry; the spill counters are always
// zero.
func (s *memStore) Stats() Stats {
	keys, bytes := s.table.Stats()
	return Stats{
		Interned:          keys,
		InternedBytes:     bytes,
		PeakResidentBytes: s.meter.Peak(),
	}
}

// Close drops the table and the levels, so their memory can be
// reclaimed while the caller still holds the store; the store holds no
// other resources.
func (s *memStore) Close() error {
	s.table, s.cur, s.next = nil, nil, nil
	return nil
}
