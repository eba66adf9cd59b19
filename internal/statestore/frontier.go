package statestore

import (
	"bufio"
	"fmt"
	"os"

	"repro/internal/statecodec"
)

// The frontier is a two-queue structure: each BFS level under
// construction accumulates either in a hot in-RAM buffer or, once the
// store crosses its memory budget, in a cold on-disk run file. Levels
// are written once (by the single-threaded merge, in discovery order)
// and read once (by the expansion workers of the next level, in
// contiguous chunks via ReadAt, which is safe concurrently); a consumed
// run file is deleted immediately. Whether a level was hot or cold is
// invisible to the explorer: keys come back in exactly the order they
// were pushed, so state numbering never depends on the budget.

// spillWriter is a plain buffered writer that latches the first error,
// so per-key write calls stay unchecked in the hot path.
type spillWriter struct {
	w   *bufio.Writer
	err error
}

func newSpillWriter(f *os.File) *spillWriter {
	return &spillWriter{w: bufio.NewWriterSize(f, 1<<20)}
}

func (s *spillWriter) write(b []byte) {
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

func (s *spillWriter) flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// levelWriter accumulates the next BFS level.
type levelWriter struct {
	s    *Store
	n    int
	offs []int64 // cumulative end offsets, one per key
	buf  []byte  // hot storage
	f    *os.File
	w    *spillWriter
	cold bool
	size int64
}

// PushFrontier appends one state key to the level under construction.
// Single-threaded (merge only).
func (s *Store) PushFrontier(key []byte) error {
	b := s.next
	if !b.cold && s.overBudget() {
		if err := b.spill(); err != nil {
			return err
		}
	}
	if b.cold {
		b.w.write(key)
	} else {
		b.buf = append(b.buf, key...)
		s.meter.Add(int64(len(key)))
	}
	b.size += int64(len(key))
	b.offs = append(b.offs, b.size)
	b.n++
	return nil
}

// spill converts the level under construction from hot to cold: the
// bytes accumulated so far seed a new run file, and subsequent pushes
// append to it. Offsets recorded so far stay valid — the file starts
// with exactly the hot buffer's contents.
func (b *levelWriter) spill() error {
	f, err := b.s.newSpillFile("frontier")
	if err != nil {
		return err
	}
	w := newSpillWriter(f)
	w.write(b.buf)
	if err := w.flush(); err != nil {
		f.Close()
		return fmt.Errorf("statestore: spill frontier: %w", err)
	}
	b.s.meter.Add(-int64(len(b.buf)))
	b.buf = nil
	b.f = f
	b.w = w
	b.cold = true
	b.s.stats.FrontierSpills++
	return nil
}

// Level is one sealed BFS frontier level, readable in chunks.
type Level struct {
	n    int
	offs []int64
	buf  []byte
	f    *os.File
}

// Len is the number of states in the level.
func (l *Level) Len() int { return l.n }

// ChunkReader is the shared per-worker scratch for Level.Chunk; see
// statecodec.ChunkReader.
type ChunkReader = statecodec.ChunkReader

// Chunk returns the encoded keys of states [start, end) of the level.
// The returned slices alias the reader's scratch (cold level) or the
// level buffer (hot level) and are valid until the next Chunk call on
// the same reader. Safe for concurrent use with distinct readers.
func (l *Level) Chunk(start, end int, cr *ChunkReader) ([][]byte, error) {
	var base int64
	if start > 0 {
		base = l.offs[start-1]
	}
	tot := l.offs[end-1] - base
	var src []byte
	if l.f != nil {
		if int64(cap(cr.Scratch)) < tot {
			cr.Scratch = make([]byte, tot)
		}
		src = cr.Scratch[:tot]
		if _, err := l.f.ReadAt(src, base); err != nil {
			return nil, err
		}
	} else {
		src = l.buf[base : base+tot]
	}
	cr.Keys = cr.Keys[:0]
	prev := int64(0)
	for i := start; i < end; i++ {
		e := l.offs[i] - base
		cr.Keys = append(cr.Keys, src[prev:e])
		prev = e
	}
	return cr.Keys, nil
}

// NextLevel seals the level under construction for reading and releases
// the previously returned level (deleting its run file, or returning
// its hot bytes to the budget). Single-threaded (explorer loop only).
// The result is typed as the shared Level contract so *Store satisfies
// statecodec.Store.
func (s *Store) NextLevel() (statecodec.Level, error) {
	if s.cur != nil {
		if err := s.releaseLevel(s.cur); err != nil {
			return nil, err
		}
		s.cur = nil
	}
	b := s.next
	if b.cold {
		if err := b.w.flush(); err != nil {
			return nil, fmt.Errorf("statestore: finish frontier run: %w", err)
		}
	}
	lvl := &Level{n: b.n, offs: b.offs, buf: b.buf, f: b.f}
	s.cur = lvl
	s.next = &levelWriter{s: s}
	return lvl, nil
}

// releaseLevel frees a fully consumed level.
func (s *Store) releaseLevel(l *Level) error {
	if l.f != nil {
		name := l.f.Name()
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
		return os.Remove(name)
	}
	s.meter.Add(-int64(len(l.buf)))
	l.buf = nil
	return nil
}
