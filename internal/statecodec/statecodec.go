// Package statecodec is the pure, OS-free half of the explorer's state
// storage: fixed-width bit-packed state encodings derived from value
// layouts (Slot, Layout, Record, BitWriter, BitReader), the storage
// contract the explorer programs against (Store, Level, Ref), the
// hash-once intern table every Store shares (Table), and an in-memory
// Store that keeps every interned key and frontier level resident.
//
// The package belongs to the core layer: it imports no operating-system
// facilities and compiles unchanged for every GOOS/GOARCH pair,
// including js/wasm. The platform layer's internal/statestore implements
// the same Store contract with a spill-to-disk backend (append-only
// mmap'd generation files, on-disk frontier run files) for explorations
// whose state space exceeds RAM; callers choose an implementation
// through Backend.Open. Nothing behind the Store interface influences
// state identity or discovery order, so the produced LTS is
// byte-identical whichever implementation holds the bytes.
package statecodec

// Config bounds a Store.
type Config struct {
	// MemBudget is the approximate number of bytes of state storage the
	// store may keep resident (interned keys plus hot frontier bytes plus
	// bookkeeping); 0 means unlimited, everything stays in RAM. Stores
	// without spill capability (OpenMem) ignore the budget.
	MemBudget int64
	// Dir is the parent directory for a spilling store's private spill
	// directory; empty uses the OS temp dir. Pure in-memory stores ignore
	// it and never touch the filesystem.
	Dir string
}

// Entry is one resident interned state. ID stays -1 until the explorer's
// deterministic merge assigns the state its discovery-order ID; the
// store's Key returns the encoded state for as long as the entry is
// resident. Entries hold no pointers: they locate their key in the
// intern table's arena.
type Entry struct {
	ID  int32
	tag uint32
	at  uint32 // arena block index << blockBits | offset
	n   uint32 // key length
}

// Tag is the high half of the entry's key hash, recorded when the key was
// interned so that shedding the entry never rehashes it.
func (e *Entry) Tag() uint32 { return e.tag }

// Ref is the result of an intern: either a resident entry (Ent != nil;
// inspect and assign Ent.ID) or a hit on a state the store no longer
// keeps resident, where the state's already-assigned ID is returned
// directly. Non-resident states always carry assigned IDs: stores only
// shed entries at level boundaries, after the merge has numbered every
// state of the level.
type Ref struct {
	Ent *Entry
	ID  int32
	// New reports that this Intern created Ent: each distinct state is
	// new exactly once.
	New bool
}

// Stats reports a store's lifetime telemetry.
type Stats struct {
	// Interned is the number of distinct states interned.
	Interned int64
	// InternedBytes is the summed encoded size of those states; divided
	// by Interned it gives the effective bytes/state of the encoding.
	InternedBytes int64
	// PeakResidentBytes is the high-water mark of the store's resident
	// set (hot keys, bookkeeping, spilled-generation indexes, hot
	// frontier bytes).
	PeakResidentBytes int64
	// SpillFiles counts every temp file the store created (generation
	// files plus frontier run files); always 0 for in-memory stores.
	SpillFiles int
	// TableFlushes counts intern-table generation flushes.
	TableFlushes int
	// FrontierSpills counts levels whose frontier went to a run file.
	FrontierSpills int
}

// Spilled reports whether anything left RAM.
func (s Stats) Spilled() bool { return s.SpillFiles > 0 }

// ChunkReader is per-worker scratch for Level.Chunk: a reusable read
// buffer and key-slice header array, shared across Store
// implementations.
type ChunkReader struct {
	Scratch []byte
	Keys    [][]byte
}

// Level is one sealed BFS frontier level, readable in chunks. Chunk
// returns the encoded keys of states [start, end) of the level; the
// returned slices alias the reader's scratch or the level's buffer and
// are valid until the next Chunk call on the same reader. Chunk is safe
// for concurrent use with distinct readers.
type Level interface {
	Len() int
	Chunk(start, end int, cr *ChunkReader) ([][]byte, error)
}

// Store is the explorer's state storage: a sharded intern table plus the
// level-ordered frontier.
//
// Concurrency contract: Intern is safe for concurrent use (expansion
// workers). PushFrontier, NextLevel, EndLevel, Stats and Close are
// single-threaded explorer-merge operations and must not race with
// Intern calls (the level-synchronized explorer guarantees this: all
// workers join before the merge runs).
//
// Whatever the implementation, keys must come back from levels in
// exactly the order they were pushed, and Intern must return the same
// identity for equal keys — state numbering never depends on the
// backing storage.
type Store interface {
	// Intern returns the reference for key, creating an unnumbered
	// resident entry (ID == -1) on first sight. The key buffer may be
	// reused by the caller after the call returns.
	Intern(key []byte) Ref
	// Key returns the encoded state of a resident entry returned by
	// Intern. The slice must not be modified; merge only.
	Key(e *Entry) []byte
	// PushFrontier appends one state key to the level under construction.
	PushFrontier(key []byte) error
	// NextLevel seals the level under construction for reading and
	// releases the previously returned level.
	NextLevel() (Level, error)
	// EndLevel closes the level just merged; spilling stores use it to
	// shed the closed intern-table generation once every entry carries
	// its final ID.
	EndLevel() error
	// Stats snapshots the store's telemetry.
	Stats() Stats
	// Close releases every resource the store holds. It is idempotent
	// and must run on every explorer exit path.
	Close() error
}

// Opener creates a Store for one exploration.
type Opener func(Config) (Store, error)

// Backend bundles the platform services an exploration may use. Its
// zero value is the pure configuration: states stay in RAM and
// process-level telemetry reads as unknown. The platform layer
// (internal/statestore) supplies a spill-capable Open and a real RSS
// probe; core-layer code never needs either to produce correct results.
type Backend struct {
	// Open creates the exploration's state store; nil uses the in-memory
	// store (OpenMem), which ignores any memory budget.
	Open Opener
	// PeakRSS reports the process's high-water resident set size in
	// bytes, or 0 where the platform cannot tell; nil means unknown.
	// Consumers must omit, not report, zero values.
	PeakRSS func() int64
}

// ProcessPeakRSS resolves the backend's RSS probe: the probed value, or
// 0 (unknown) without a probe.
func (b Backend) ProcessPeakRSS() int64 {
	if b.PeakRSS == nil {
		return 0
	}
	return b.PeakRSS()
}

// OpenStore resolves the backend's opener: Open when set, OpenMem
// otherwise.
func (b Backend) OpenStore(cfg Config) (Store, error) {
	if b.Open == nil {
		return OpenMem(cfg)
	}
	return b.Open(cfg)
}
