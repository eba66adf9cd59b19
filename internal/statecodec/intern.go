package statecodec

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// NumShards is the number of intern-table lock stripes, a power of two.
// The hash only picks the stripe, the slot and the spilled-generation
// tag — it never influences the produced LTS.
const NumShards = 1 << shardBits

// shardBits is log2(NumShards).
const shardBits = 6

// Hash constants (the wyhash secrets).
const (
	hashK0 = 0xa0761d6478bd642f
	hashK1 = 0xe7037ed1a0b428db
	hashK2 = 0x8ebc6af09c88c6e3
)

// mum is the 64×64→128-bit multiply folded to 64 bits.
func mum(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Hash is the intern table's key hash: eight bytes at a time, one
// multiply per word. Every store computes it exactly once per Intern;
// its high 32 bits are the tag, whose top bits pick the shard, whose low
// bits pick the slot, and which indexes spilled generations.
func Hash(b []byte) uint64 {
	h := uint64(len(b)) ^ hashK2
	for len(b) >= 8 {
		h = mum(binary.LittleEndian.Uint64(b)^hashK0, h^hashK1)
		b = b[8:]
	}
	if len(b) > 0 {
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		h = mum(w^hashK0, h^hashK1)
	}
	return mum(h^hashK2, hashK1)
}

// tagOf is the high half of a key hash: its low bits place the key in
// its shard's open-addressing slot array, the whole tag orders
// spilled-generation indexes, and its top bits are the shard.
func tagOf(h uint64) uint32 { return uint32(h >> 32) }

// shardOf is the lock stripe of a key hash: the top bits of its tag, so
// an entry's shard follows from the tag it records.
func shardOf(h uint64) int { return int(h >> (64 - shardBits)) }

// Meter tracks a store's resident bytes and their high-water mark. The
// intern table reports its allocations to it; stores add their frontier
// and index bytes.
type Meter struct {
	resident atomic.Int64
	peak     atomic.Int64
}

// Add moves the resident count by delta, raising the peak as needed.
func (m *Meter) Add(delta int64) {
	r := m.resident.Add(delta)
	for {
		p := m.peak.Load()
		if r <= p || m.peak.CompareAndSwap(p, r) {
			return
		}
	}
}

// Resident is the current resident byte count.
func (m *Meter) Resident() int64 { return m.resident.Load() }

// Peak is the highest resident byte count seen.
func (m *Meter) Peak() int64 { return m.peak.Load() }

// Table layout constants. Shards start small — a Table II pass opens
// some forty stores, most of them for LTSs of a few hundred states —
// and grow geometrically.
const (
	minSlots     = 16  // initial slot-array length (power of two)
	firstSlab    = 16  // entries in a shard's first slab chunk
	firstSlabLog = 4   // log2(firstSlab)
	maxSlabLog   = 8   // slab chunks stop doubling at 1<<maxSlabLog entries
	minBlock     = 256 // first arena block, bytes
	blockBits    = 14  // arena blocks stop doubling at 1<<blockBits bytes
	maxBlock     = 1 << blockBits
	entrySize    = int64(unsafe.Sizeof(Entry{}))
	// geoEntries is the number of entries held by the doubling chunks
	// (16, 32, 64, 128); every later chunk holds 1<<maxSlabLog.
	geoEntries = firstSlab<<(maxSlabLog-firstSlabLog) - firstSlab
)

// tableShard is one lock stripe: a pointer-free open-addressing slot
// array over a chunked slab of pointer-free entries, with the key bytes
// in append-only arena blocks. Nothing is allocated per key: a new entry
// takes the next slab position and the next arena bytes, and only
// filling a slab chunk, an arena block or the slot array allocates
// (geometrically). The garbage collector scans neither entries nor
// keys.
type tableShard struct {
	mu sync.Mutex
	// slots holds 0 (empty) or tag<<32 | entry index+1; linear probing
	// from tag & (len-1).
	slots []uint64
	// slab chunks hold 16, 32, 64, 128 and then 256 entries each; they
	// never move, so *Entry pointers stay valid for the table's
	// lifetime, and a shard wastes at most one chunk's tail.
	slab [][]Entry
	n    int
	// blocks are the arena blocks, the last one filling; an entry finds
	// its key by block index and offset (Entry.at).
	blocks [][]byte
	alloc  int64 // bytes allocated for slots, slab and arena since Reset
	// keys and bytes count every insert over the shard's lifetime.
	keys, bytes int64
	_           [16]byte // pad to two cache lines so shard locks don't false-share
}

// key returns the bytes of entry e of this shard.
func (s *tableShard) key(e *Entry) []byte {
	b := s.blocks[e.at>>blockBits]
	off := e.at & (maxBlock - 1)
	return b[off : off+e.n : off+e.n]
}

// account records an allocation of n bytes by the shard.
func (t *Table) account(sh *tableShard, n int64) {
	sh.alloc += n
	t.meter.Add(n)
}

// slabPos maps entry index i to its slab chunk and offset.
func slabPos(i int) (chunk, off int) {
	if i < geoEntries {
		c := bits.Len(uint(i+firstSlab)) - 1 - firstSlabLog
		return c, i + firstSlab - firstSlab<<c
	}
	i -= geoEntries
	return maxSlabLog - firstSlabLog + i>>maxSlabLog, i & (1<<maxSlabLog - 1)
}

// entry returns the i-th entry (insertion order).
func (s *tableShard) entry(i int) *Entry {
	c, off := slabPos(i)
	return &s.slab[c][off]
}

// Table is the intern table every Store shares: keys are hashed once
// (Hash), the hash picks the shard, the slot and the spilled-generation
// tag, and entries carry the explorer's discovery-order IDs. Lookups
// and inserts are safe for concurrent use; Each and Reset are for the
// single-threaded merge only.
type Table struct {
	shards [NumShards]tableShard
	meter  *Meter
	// spilled, when set, resolves a resident miss against the keys a
	// spilling store has shed; it runs under the shard lock, so a key is
	// never inserted twice.
	spilled func(shard int, tag uint32, key []byte) (int32, bool)
}

// NewTable creates an empty table reporting its allocations to m.
// spilled, when non-nil, is consulted on every resident miss before a
// new entry is created; a hit is returned as Ref{ID: id}.
func NewTable(m *Meter, spilled func(shard int, tag uint32, key []byte) (int32, bool)) *Table {
	return &Table{meter: m, spilled: spilled}
}

// Intern returns the reference for key (whose Hash is h), creating an
// unnumbered resident entry (ID == -1) on first sight. The key buffer
// may be reused by the caller after the call returns.
func (t *Table) Intern(h uint64, key []byte) Ref {
	si := shardOf(h)
	sh := &t.shards[si]
	tag := tagOf(h)
	sh.mu.Lock()
	if sh.slots == nil {
		sh.slots = make([]uint64, minSlots)
		t.account(sh, minSlots*8)
	}
	mask := uint32(len(sh.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		v := sh.slots[i]
		if v == 0 {
			if t.spilled != nil {
				if id, ok := t.spilled(si, tag, key); ok {
					sh.mu.Unlock()
					return Ref{ID: id}
				}
			}
			e := t.insert(sh, tag, key)
			sh.slots[i] = uint64(tag)<<32 | uint64(sh.n)
			if sh.n*4 > len(sh.slots)*3 {
				t.grow(sh)
			}
			sh.mu.Unlock()
			return Ref{Ent: e, New: true}
		}
		if uint32(v>>32) == tag {
			if e := sh.entry(int(uint32(v)) - 1); string(sh.key(e)) == string(key) {
				sh.mu.Unlock()
				return Ref{Ent: e}
			}
		}
	}
}

// insert appends a new entry for a copy of key to the shard's slab and
// arena; the caller holds the shard lock and fills the slot.
func (t *Table) insert(sh *tableShard, tag uint32, key []byte) *Entry {
	nb := len(sh.blocks)
	if nb == 0 || len(sh.blocks[nb-1])+len(key) > cap(sh.blocks[nb-1]) {
		size := minBlock
		if nb > 0 {
			size = min(2*cap(sh.blocks[nb-1]), maxBlock)
		}
		// A key longer than a block gets a block of its own, at
		// offset 0.
		sh.blocks = append(sh.blocks, make([]byte, 0, max(size, len(key))))
		t.account(sh, int64(max(size, len(key))))
		nb++
	}
	block := &sh.blocks[nb-1]
	off := len(*block)
	*block = append(*block, key...)
	i := sh.n
	if c, _ := slabPos(i); c == len(sh.slab) {
		size := firstSlab << min(c, maxSlabLog-firstSlabLog)
		sh.slab = append(sh.slab, make([]Entry, size))
		t.account(sh, entrySize*int64(size))
	}
	sh.n++
	e := sh.entry(i)
	e.ID = -1
	e.tag = tag
	e.at = uint32(nb-1)<<blockBits | uint32(off)
	e.n = uint32(len(key))
	sh.keys++
	sh.bytes += int64(len(key))
	return e
}

// grow doubles the shard's slot array, re-placing every slot by its
// stored tag — no key is rehashed or even read.
func (t *Table) grow(sh *tableShard) {
	old := sh.slots
	sh.slots = make([]uint64, 2*len(old))
	mask := uint32(len(sh.slots) - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := uint32(v>>32) & mask
		for sh.slots[i] != 0 {
			i = (i + 1) & mask
		}
		sh.slots[i] = v
	}
	t.account(sh, int64(len(sh.slots)-len(old))*8)
}

// Stats reports the number of keys interned over the table's lifetime
// and their summed length (Reset lowers neither). Single-threaded
// (after the workers joined).
func (t *Table) Stats() (keys, bytes int64) {
	for si := range t.shards {
		keys += t.shards[si].keys
		bytes += t.shards[si].bytes
	}
	return keys, bytes
}

// Key returns the encoded state of a resident entry. The slice aliases
// the table's arena: it must not be modified, and it stays valid until
// the entry's shard is Reset. Not safe for concurrent use with Intern
// (merge only).
func (t *Table) Key(e *Entry) []byte {
	return t.shards[e.tag>>(32-shardBits)].key(e)
}

// Each calls fn on every resident entry of shard si in insertion order.
// Single-threaded (merge only).
func (t *Table) Each(si int, fn func(e *Entry)) {
	sh := &t.shards[si]
	for i := 0; i < sh.n; i++ {
		fn(sh.entry(i))
	}
}

// Reset drops every resident entry of shard si and returns its memory
// to the meter; the shard starts small again. Entry pointers into the
// shard become invalid. Single-threaded (merge only).
func (t *Table) Reset(si int) {
	sh := &t.shards[si]
	t.meter.Add(-sh.alloc)
	sh.slots, sh.slab, sh.n, sh.blocks, sh.alloc = nil, nil, 0, nil, 0
}
