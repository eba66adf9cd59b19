// Package statestore is the platform half of the explorer's state
// storage: a statecodec.Store implementation whose sharded intern table
// spills closed generations to append-only mmap'd temp files past a
// configurable memory budget, and whose BFS frontier runs through a
// two-queue structure (hot in-RAM buffer, cold on-disk run files)
// replayed level by level. It also hosts the process telemetry probe
// (peak RSS via /proc on Linux, zero elsewhere).
//
// The pure layout/codec types and the storage contract live in
// internal/statecodec; this package owns only where the bytes go when
// they leave RAM. Nothing here influences state identity or discovery
// order, so the produced LTS is byte-identical for any memory budget.
package statestore

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/statecodec"
)

// Config bounds a Store: statecodec.Config with the budget semantics
// this package implements. When the budget is exceeded, closed
// intern-table generations flush to append-only temp files and the
// frontier of the next level goes to an on-disk run file; the spill
// directory and everything in it are removed by Close.
type Config = statecodec.Config

// Entry, Ref and Stats are the shared storage-contract types; see
// statecodec. Store.Key returns an Entry's encoded state until the
// entry's generation spills, at which point it lives in a generation
// file and is no longer reachable through an Entry.
type (
	Entry = statecodec.Entry
	Ref   = statecodec.Ref
	Stats = statecodec.Stats
)

// genEntryOverhead approximates the resident index cost of one spilled
// entry (hash, offset, length, ID in the generation index arrays).
const genEntryOverhead = 14

// shardGen is the in-RAM index of one shard's slice of a spilled
// generation: entries sorted by hash for binary search, with the key
// bytes living in the generation's mmap'd file.
type shardGen struct {
	data   []byte // whole generation file contents (mmap'd, shared)
	hashes []uint32
	offs   []uint32
	lens   []uint16
	ids    []int32
}

// find looks key (with hash h) up in this generation slice.
func (g *shardGen) find(h uint32, key []byte) (int32, bool) {
	i := sort.Search(len(g.hashes), func(i int) bool { return g.hashes[i] >= h })
	for ; i < len(g.hashes) && g.hashes[i] == h; i++ {
		off, ln := int(g.offs[i]), int(g.lens[i])
		if ln == len(key) && bytes.Equal(g.data[off:off+ln], key) {
			return g.ids[i], true
		}
	}
	return 0, false
}

// generation tracks one spilled generation file for cleanup.
type generation struct {
	f      *os.File
	data   []byte
	mapped bool
}

// Store is the explorer's state storage: the sharded intern table and
// the level-ordered frontier, both subject to one shared memory budget.
//
// Concurrency contract: Intern is safe for concurrent use (expansion
// workers). PushFrontier, NextLevel, EndLevel, Stats and Close are
// single-threaded explorer-merge operations and must not race with
// Intern calls (the level-synchronized explorer guarantees this: all
// workers join before the merge runs).
type Store struct {
	cfg   Config
	dir   string // private spill directory, created on first spill
	meter statecodec.Meter
	// table holds the hot (resident) entries; spilled[si] indexes shard
	// si's slices of the spilled generations, oldest first. The spilled
	// indexes change only in flushTable, which never races with Intern.
	table   *statecodec.Table
	spilled [statecodec.NumShards][]shardGen

	gens    []generation
	fileSeq int
	stats   Stats

	cur  *Level // level being expanded
	next *levelWriter

	closed bool
}

// Open creates an empty store. The caller must Close it to release any
// spill files; Close is safe (and cheap) when nothing ever spilled.
func Open(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg}
	s.table = statecodec.NewTable(&s.meter, s.findSpilled)
	s.next = &levelWriter{s: s}
	return s, nil
}

func (s *Store) overBudget() bool {
	return s.cfg.MemBudget > 0 && s.meter.Resident() > s.cfg.MemBudget
}

// Intern returns the reference for key, creating an unnumbered resident
// entry (ID == -1) on first sight. Safe for concurrent use; the key
// buffer may be reused by the caller after the call returns. The key is
// hashed once; the hash picks the shard, the hot slot and the tag the
// spilled generations are searched by.
func (s *Store) Intern(key []byte) Ref {
	return s.table.Intern(statecodec.Hash(key), key)
}

// Key returns the encoded state of a resident entry; merge only.
func (s *Store) Key(e *Entry) []byte { return s.table.Key(e) }

// findSpilled resolves a hot-table miss against shard si's spilled
// generations, newest first. The table calls it under the shard lock.
func (s *Store) findSpilled(si int, tag uint32, key []byte) (int32, bool) {
	gens := s.spilled[si]
	for gi := len(gens) - 1; gi >= 0; gi-- {
		if id, ok := gens[gi].find(tag, key); ok {
			return id, true
		}
	}
	return 0, false
}

// ensureDir creates the store's private spill directory on first use.
// A store with an unlimited budget must never get here: pure in-RAM
// runs (and js builds routed through the in-memory backend) are
// guaranteed to touch no filesystem, so an attempt to spill without a
// budget is an internal invariant violation, not a reason to create
// temp files.
func (s *Store) ensureDir() error {
	if s.dir != "" {
		return nil
	}
	if s.cfg.MemBudget <= 0 {
		return fmt.Errorf("statestore: internal error: spill attempted with an unlimited memory budget")
	}
	dir, err := os.MkdirTemp(s.cfg.Dir, "bbv-statestore-*")
	if err != nil {
		return fmt.Errorf("statestore: create spill dir: %w", err)
	}
	s.dir = dir
	return nil
}

func (s *Store) newSpillFile(prefix string) (*os.File, error) {
	if err := s.ensureDir(); err != nil {
		return nil, err
	}
	s.fileSeq++
	f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("%s-%06d", prefix, s.fileSeq)))
	if err != nil {
		return nil, fmt.Errorf("statestore: create spill file: %w", err)
	}
	s.stats.SpillFiles++
	return f, nil
}

// flushTable spills every hot intern-table entry into one new
// append-only generation file and replaces the hot shards with compact
// sorted indexes over the mmap'd file. Must only run at a level
// boundary: every hot entry must carry an assigned ID, because after
// the flush the key bytes are reachable only through the file. Keys are
// written in ID order, so a generation file is a function of the
// explored program alone — the same bytes for every run and every
// worker count.
func (s *Store) flushTable() error {
	lo, hi := int32(math.MaxInt32), int32(-1)
	var counts [statecodec.NumShards]int
	for si := range counts {
		var bad bool
		s.table.Each(si, func(e *Entry) {
			if e.ID < 0 {
				bad = true
			}
			lo, hi = min(lo, e.ID), max(hi, e.ID)
			counts[si]++
		})
		if bad {
			return fmt.Errorf("statestore: internal error: flushing unnumbered entry")
		}
	}
	if hi < lo {
		return nil
	}
	byID := make([]*Entry, hi-lo+1)
	shardOf := make([]uint8, hi-lo+1)
	for si := 0; si < statecodec.NumShards; si++ {
		var dup bool
		s.table.Each(si, func(e *Entry) {
			if byID[e.ID-lo] != nil {
				dup = true
			}
			byID[e.ID-lo], shardOf[e.ID-lo] = e, uint8(si)
		})
		if dup {
			return fmt.Errorf("statestore: internal error: flushing two entries with one ID")
		}
	}
	f, err := s.newSpillFile("gen")
	if err != nil {
		return err
	}
	w := newSpillWriter(f)
	var sgs [statecodec.NumShards]shardGen
	for si, n := range counts {
		sgs[si] = shardGen{
			hashes: make([]uint32, 0, n),
			offs:   make([]uint32, 0, n),
			lens:   make([]uint16, 0, n),
			ids:    make([]int32, 0, n),
		}
	}
	var off int64
	var spilled int64
	for i, e := range byID {
		if e == nil {
			continue
		}
		key := s.table.Key(e)
		if len(key) > math.MaxUint16 {
			f.Close()
			return fmt.Errorf("statestore: state encoding of %d bytes exceeds generation record limit", len(key))
		}
		if off+int64(len(key)) > math.MaxUint32 {
			f.Close()
			return fmt.Errorf("statestore: generation file exceeds 4 GiB; use a larger memory budget")
		}
		w.write(key)
		sg := &sgs[shardOf[i]]
		sg.hashes = append(sg.hashes, e.Tag())
		sg.offs = append(sg.offs, uint32(off))
		sg.lens = append(sg.lens, uint16(len(key)))
		sg.ids = append(sg.ids, e.ID)
		off += int64(len(key))
		spilled++
	}
	if err := w.flush(); err != nil {
		f.Close()
		return fmt.Errorf("statestore: write generation: %w", err)
	}
	data, mapped, err := mmapFile(f, off)
	if err != nil {
		f.Close()
		return fmt.Errorf("statestore: map generation: %w", err)
	}
	s.gens = append(s.gens, generation{f: f, data: data, mapped: mapped})
	for si := range sgs {
		sg := &sgs[si]
		if len(sg.ids) == 0 {
			continue
		}
		sg.data = data
		sortShardGen(sg)
		s.spilled[si] = append(s.spilled[si], *sg)
		s.table.Reset(si)
	}
	s.meter.Add(genEntryOverhead * spilled)
	s.stats.TableFlushes++
	return nil
}

// EndLevel closes the level just merged: if the store is over budget
// and the hot table holds anything worth shedding, the closed
// generation flushes to disk. Called by the explorer after each merge,
// when every interned entry carries its final ID.
func (s *Store) EndLevel() error {
	if !s.overBudget() {
		return nil
	}
	return s.flushTable()
}

// Stats snapshots the store's telemetry.
func (s *Store) Stats() Stats {
	st := s.stats
	st.Interned, st.InternedBytes = s.table.Stats()
	st.PeakResidentBytes = s.meter.Peak()
	return st
}

// Close releases every resource the store holds: mmap regions, open
// spill files, and the spill directory itself. It is idempotent and
// must run on every explorer exit path — success, cancellation and
// state-limit abort alike.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.table, s.spilled = nil, [statecodec.NumShards][]shardGen{}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for i := range s.gens {
		g := &s.gens[i]
		if g.mapped {
			keep(munmapFile(g.data))
		}
		g.data = nil
		keep(g.f.Close())
	}
	s.gens = nil
	if s.cur != nil && s.cur.f != nil {
		keep(s.cur.f.Close())
		s.cur.f = nil
	}
	if s.next != nil && s.next.f != nil {
		keep(s.next.w.flush())
		keep(s.next.f.Close())
		s.next.f = nil
	}
	if s.dir != "" {
		keep(os.RemoveAll(s.dir))
		s.dir = ""
	}
	return first
}

// sortShardGen sorts the four parallel index arrays by hash (ties by
// file offset, for determinism of the in-RAM index only — lookups are
// order-insensitive).
func sortShardGen(g *shardGen) {
	sort.Sort((*genSort)(g))
}

type genSort shardGen

func (g *genSort) Len() int { return len(g.hashes) }
func (g *genSort) Less(i, j int) bool {
	if g.hashes[i] != g.hashes[j] {
		return g.hashes[i] < g.hashes[j]
	}
	return g.offs[i] < g.offs[j]
}
func (g *genSort) Swap(i, j int) {
	g.hashes[i], g.hashes[j] = g.hashes[j], g.hashes[i]
	g.offs[i], g.offs[j] = g.offs[j], g.offs[i]
	g.lens[i], g.lens[j] = g.lens[j], g.lens[i]
	g.ids[i], g.ids[j] = g.ids[j], g.ids[i]
}
