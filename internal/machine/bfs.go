package machine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lts"
	"repro/internal/statecodec"
)

// State-space generation: a level-synchronized BFS over a
// statecodec.Store (the in-memory store by default; the spilling
// statestore when the platform wired one in via Options.Backend). It is
// the only explorer: one worker, many workers and any memory budget run
// this code.
//
// The frontier of each BFS level is the sequence of state keys pushed
// during the previous level's merge, served by the store either from a
// hot in-RAM buffer or from an on-disk run file (invisible to this
// file). Workers claim fixed-size chunks of the frontier (dynamic
// scheduling via an atomic cursor), expand each state with fully
// private scratch (expander, decode state, encode buffer, chunk
// reader), intern successor encodings into the store's sharded table,
// and append their transitions — in symbolic form — to a per-worker
// buffer. With one worker the level is expanded inline, on the calling
// goroutine. A single-threaded merge then walks the frontier in state
// order, assigns IDs to newly discovered states in discovery order
// (frontier states ascending, transitions in per-state emission order),
// resolves action and label IDs through the memoized interner, and
// bulk-appends each row to the CSR builder. After the merge the level is
// closed: if the store is over its memory budget, the closed
// intern-table generation spills to disk — at that point every entry of
// the generation carries its final ID, so the spill moves bytes, never
// decisions.
//
// Errors are decided by the merge too. A panic in program code while a
// worker expands a state is recovered into a RuntimeError attached to
// that state's row; workers stop claiming rows past the lowest faulted
// row, and the merge, walking rows in state order, reports the first
// state-limit overrun or fault it meets. Consequently the produced LTS —
// state numbering, transition order, alphabet interning, deadlock list
// — and the error of a failing exploration are identical for every
// worker count and every memory budget; only wall-clock time and memory
// residency change.

// RuntimeError reports a fault raised by program code during
// exploration: a statement of a reachable state panicked (a nil
// dereference, an exhausted heap, a specification's capacity check), a
// successor fell outside the state encoding, or program Init failed.
// Every worker count reports the same RuntimeError for a program.
type RuntimeError struct {
	Program string
	// State is the ID of the state whose expansion faulted, or -1 when
	// building the initial state did (program Init or its encoding).
	State int32
	// Method, PC and Label name the statement thread Thread (0-based)
	// was executing; Method is empty when the fault arose outside a
	// statement (Init, or encoding a successor). Pos is the statement's
	// source position for BBVL programs.
	Thread int
	Method string
	PC     int
	Label  string
	Pos    Pos
	// Value is the recovered panic value.
	Value any
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	where := "the initial state"
	if e.State >= 0 {
		where = fmt.Sprintf("state %d", e.State)
	}
	if e.Method != "" {
		lbl := e.Label
		if lbl == "" {
			lbl = fmt.Sprint(e.PC)
		}
		where += fmt.Sprintf(", thread %d at %s.%s", e.Thread+1, e.Method, lbl)
		if e.Pos.IsValid() {
			where += " (" + e.Pos.String() + ")"
		}
	}
	return fmt.Sprintf("machine: %s: model runtime error in %s: %v", e.Program, where, e.Value)
}

// Unwrap exposes a panic value that was itself an error (a runtime
// error such as an index out of range).
func (e *RuntimeError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// runtimeError builds the fault report for panic value v raised while
// x expanded state id (-1: the initial state).
func runtimeError(p *Program, x *expander, id int32, v any) *RuntimeError {
	e := &RuntimeError{Program: p.Name, State: id, Value: v}
	if x != nil && x.inStmt {
		m := &p.Methods[x.stmtM]
		st := &m.Body[x.stmtPC]
		e.Thread, e.Method, e.PC, e.Label, e.Pos = int(x.stmtT), m.Name, int(x.stmtPC), st.Label, st.Pos
	}
	return e
}

// ptrans is one worker-recorded transition: the symbolic action plus
// the successor's store reference, resolved to IDs during the merge.
type ptrans struct {
	ref statecodec.Ref
	sym symTrans
}

// rowRef locates one frontier state's transitions inside a worker
// buffer, with the fault that cut its expansion short, if any.
type rowRef struct {
	start, end int32
	worker     int32
	deadlock   bool
	fault      *RuntimeError
}

// pworker is one exploration worker: private expansion scratch plus the
// transition buffer the merge reads back.
type pworker struct {
	x     expander
	cur   *state
	buf   []byte
	trs   []ptrans
	cdc   codec
	store statecodec.Store
	chunk statecodec.ChunkReader
	// fresh counts the states this worker interned first in its
	// current chunk.
	fresh int64
}

// emit implements transSink: canonicalize and encode the successor,
// intern it into the shared store, and buffer the transition.
func (w *pworker) emit(x *expander, tr symTrans) bool {
	x.canon.run(x.succ)
	w.buf = w.cdc.encode(w.buf[:0], x.succ, x.canon.live)
	ref := w.store.Intern(w.buf)
	if ref.New {
		w.fresh++
	}
	w.trs = append(w.trs, ptrans{ref: ref, sym: tr})
	return true
}

// expandRow expands state id (encoded as key) into the worker's
// transition buffer, recovering a panic in program code into the row's
// fault.
func (w *pworker) expandRow(p *Program, id int32, key []byte, windex int32) (r rowRef) {
	r.start, r.worker = int32(len(w.trs)), windex
	defer func() {
		if v := recover(); v != nil {
			r.end = int32(len(w.trs))
			r.fault = runtimeError(p, &w.x, id, v)
		}
	}()
	w.cdc.decode(key, w.cur)
	cnt := w.x.expandState(w.cur, w)
	r.end = int32(len(w.trs))
	r.deadlock = cnt == 0 && !allDone(w.cur)
	return r
}

// frontierChunk is how many frontier states a worker claims at a time:
// large enough to amortize the atomic cursor (and, for spilled levels,
// the ReadAt round trip), small enough to balance uneven expansion
// costs.
const frontierChunk = 64

// level is the shared bookkeeping of one level's expand phase.
type level struct {
	lvl    statecodec.Level
	n      int
	base   int32
	rows   []rowRef
	cursor atomic.Int64
	// stop is the lowest faulted row so far (n when none): rows past it
	// can never be merged, so workers stop claiming them.
	stop atomic.Int64
	// room is how many more states the state limit admits; fresh counts
	// the new states interned by finished chunks. Once fresh exceeds
	// room, the merge of the rows expanded so far is bound to stop at a
	// fault or the state limit, so workers stop claiming chunks.
	room  int64
	fresh atomic.Int64
}

// faulted lowers stop to row i.
func (lv *level) faulted(i int) {
	for {
		s := lv.stop.Load()
		if int64(i) >= s || lv.stop.CompareAndSwap(s, int64(i)) {
			return
		}
	}
}

// work claims and expands chunks of the level until it is drained, the
// context is done, a fault or the state limit makes the rest
// unmergeable, or reading the frontier fails.
func (w *pworker) work(ctx context.Context, p *Program, lv *level, windex int32) error {
	for {
		// Poll the context once per claimed chunk so an abandoned job
		// stops burning cores within ~64 state expansions per worker.
		if ctx.Err() != nil {
			return nil
		}
		if lv.fresh.Load() > lv.room {
			return nil
		}
		start := int(lv.cursor.Add(frontierChunk)) - frontierChunk
		if int64(start) > lv.stop.Load() || start >= lv.n {
			return nil
		}
		end := min(start+frontierChunk, lv.n)
		keys, err := lv.lvl.Chunk(start, end, &w.chunk)
		if err != nil {
			return err
		}
		for i, key := range keys {
			row := start + i
			r := w.expandRow(p, lv.base+int32(row), key, windex)
			lv.rows[row] = r
			if r.fault != nil {
				lv.faulted(row)
				return nil
			}
		}
		lv.fresh.Add(w.fresh)
		w.fresh = 0
	}
}

// initialKey builds, canonicalizes and encodes the start state,
// recovering a fault in program Init (or in the encoding) into a
// RuntimeError.
func initialKey(p *Program, opt Options, cdc codec) (key []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			key, err = nil, runtimeError(p, nil, -1, v)
		}
	}()
	init := initialState(p, opt)
	canon := newCanonicalizer(p, p.HeapCap+1)
	canon.run(init)
	return cdc.encode(nil, init, canon.live), nil
}

func explore(ctx context.Context, p *Program, opt Options, cdc codec, acts, labels *lts.Alphabet, limit, workers int) (*lts.LTS, *Info, error) {
	startTime := time.Now()
	key, err := initialKey(p, opt, cdc)
	if err != nil {
		return nil, nil, err
	}
	store, err := opt.Backend.OpenStore(statecodec.Config{MemBudget: opt.MemBudget, Dir: opt.SpillDir})
	if err != nil {
		return nil, nil, err
	}
	// Spill files and mmap regions are released on every exit path —
	// success, cancellation, state-limit abort, model fault, I/O error.
	defer store.Close()
	ai := newActionInterner(p, acts, labels)

	// Intern the initial state as state 0 and seed the first frontier.
	ref := store.Intern(key)
	ref.Ent.ID = 0
	numStates := 1
	if err := store.PushFrontier(store.Key(ref.Ent)); err != nil {
		return nil, nil, err
	}

	ws := make([]*pworker, workers)
	for i := range ws {
		ws[i] = &pworker{
			x:     newExpander(p, opt.Threads),
			cur:   newScratchState(p, opt.Threads),
			cdc:   cdc,
			store: store,
		}
		// Every worker applies the identical pruning rule inside
		// expandState, so reduction keeps the LTS byte-identical across
		// worker counts.
		ws[i].x.red = opt.Reduction
	}

	info := &Info{}
	csr := lts.NewCSRBuilder(acts, labels)
	var row []lts.Transition
	lv := &level{}
	for {
		lvl, err := store.NextLevel()
		if err != nil {
			return nil, nil, err
		}
		n := lvl.Len()
		if n == 0 {
			break
		}
		lv.lvl, lv.n = lvl, n
		if cap(lv.rows) < n {
			lv.rows = make([]rowRef, n, max(n, 2*cap(lv.rows)))
		} else {
			lv.rows = lv.rows[:n]
			clear(lv.rows)
		}
		lv.cursor.Store(0)
		lv.stop.Store(int64(n))
		lv.room = int64(limit - numStates)
		lv.fresh.Store(0)

		// Expand phase: workers claim chunks until the frontier is
		// drained; a single worker runs inline.
		nw := min(workers, (n+frontierChunk-1)/frontierChunk)
		for _, w := range ws {
			// Clearing drops the previous level's entry pointers, which
			// would otherwise keep a flushed generation's slabs alive.
			clear(w.trs)
			w.trs = w.trs[:0]
		}
		readErrs := make([]error, nw)
		if nw == 1 {
			readErrs[0] = ws[0].work(ctx, p, lv, 0)
		} else {
			var wg sync.WaitGroup
			for wi, w := range ws[:nw] {
				wg.Add(1)
				go func(windex int32, w *pworker) {
					defer wg.Done()
					readErrs[windex] = w.work(ctx, p, lv, windex)
				}(int32(wi), w)
			}
			wg.Wait()
		}
		if ctx.Err() != nil {
			return nil, nil, canceled(ctx, p.Name)
		}
		if err := errors.Join(readErrs...); err != nil {
			return nil, nil, fmt.Errorf("machine: %s: frontier read: %w", p.Name, err)
		}

		// Merge phase: deterministic ID assignment and bulk CSR emission.
		total := 0
		for _, w := range ws[:nw] {
			total += len(w.trs)
		}
		csr.Reserve(n, total)
		for i := range lv.rows {
			if i&cancelCheckMask == 0 && ctx.Err() != nil {
				return nil, nil, canceled(ctx, p.Name)
			}
			r := &lv.rows[i]
			trs := ws[r.worker].trs[r.start:r.end]
			row = row[:0]
			for _, tr := range trs {
				var dst int32
				if ent := tr.ref.Ent; ent != nil {
					if ent.ID < 0 {
						// The state budget counts interned states; whether
						// earlier states are resident or spilled is
						// irrelevant to the limit.
						if numStates >= limit {
							return nil, nil, &StateLimitError{Program: p.Name, Limit: limit}
						}
						ent.ID = int32(numStates)
						numStates++
						if err := store.PushFrontier(store.Key(ent)); err != nil {
							return nil, nil, err
						}
					}
					dst = ent.ID
				} else {
					dst = tr.ref.ID
				}
				act, lbl := ai.resolve(tr.sym)
				row = append(row, lts.Transition{Action: act, Label: lbl, Dst: dst})
			}
			if r.fault != nil {
				return nil, nil, r.fault
			}
			if err := csr.EmitRow(lv.base+int32(i), row); err != nil {
				return nil, nil, err
			}
			if r.deadlock {
				info.Deadlocks = append(info.Deadlocks, lv.base+int32(i))
			}
		}
		lv.base += int32(n)
		if err := store.EndLevel(); err != nil {
			return nil, nil, err
		}
	}

	st := store.Stats()
	// Each state is expanded by exactly one worker, so the per-worker
	// pruning counters sum to the deterministic total.
	var pruned int64
	for _, w := range ws {
		pruned += w.x.pruned
	}
	// Release the intern table before Build copies the edges into the
	// LTS's exactly sized arrays, so the two never need memory at once.
	// Close is idempotent; as on every other exit path, its error (a
	// spill directory that could not be removed) does not fail the
	// exploration.
	store.Close()
	info.Stats = ExploreStats{
		Encoding:          cdc.name(),
		States:            numStates,
		EncodedBytes:      st.InternedBytes,
		PeakResidentBytes: st.PeakResidentBytes,
		PeakRSSBytes:      opt.Backend.ProcessPeakRSS(),
		SpillFiles:        st.SpillFiles,
		TableFlushes:      st.TableFlushes,
		FrontierSpills:    st.FrontierSpills,
		PrunedStates:      pruned,
		Elapsed:           time.Since(startTime),
	}
	return csr.Build(numStates, 0), info, nil
}
