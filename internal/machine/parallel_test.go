package machine_test

// Cross-validation across worker counts: the level-synchronized BFS
// fanned out to several workers must produce an LTS identical in every
// observable detail — state count, per-state successor lists (actions,
// labels, destinations, order), alphabet interning and deadlock info —
// to the one-worker run, which expands each level inline ("sequential"
// in the test names), for every registered benchmark, and the Table II
// verdicts must not depend on the worker count. explore_diff_test.go
// checks the one explorer against the deleted sequential loop.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/statecodec"
	"repro/internal/statestore"
)

// exploreWith runs one benchmark instance at the given worker count with
// fresh alphabets.
func exploreWith(t *testing.T, alg *algorithms.Algorithm, threads, ops, workers int) (*lts.LTS, *machine.Info) {
	t.Helper()
	prog := alg.Build(algorithms.Config{Threads: threads, Ops: ops})
	l, info, err := machine.ExploreWithInfo(prog, machine.Options{
		Threads: threads, Ops: ops, Workers: workers,
	})
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", alg.ID, workers, err)
	}
	return l, info
}

// assertSameLTS fails unless a and b are identical: same shape, same
// per-state transition rows in the same order, and alphabets interned to
// the same IDs.
func assertSameLTS(t *testing.T, ctx string, a, b *lts.LTS) {
	t.Helper()
	if a.NumStates() != b.NumStates() {
		t.Fatalf("%s: state count %d != %d", ctx, a.NumStates(), b.NumStates())
	}
	if a.NumTransitions() != b.NumTransitions() {
		t.Fatalf("%s: transition count %d != %d", ctx, a.NumTransitions(), b.NumTransitions())
	}
	if a.Init != b.Init {
		t.Fatalf("%s: init %d != %d", ctx, a.Init, b.Init)
	}
	if a.Acts.Len() != b.Acts.Len() {
		t.Fatalf("%s: alphabet size %d != %d", ctx, a.Acts.Len(), b.Acts.Len())
	}
	for id := 0; id < a.Acts.Len(); id++ {
		if a.Acts.Name(lts.ActionID(id)) != b.Acts.Name(lts.ActionID(id)) {
			t.Fatalf("%s: action %d interned as %q vs %q", ctx, id,
				a.Acts.Name(lts.ActionID(id)), b.Acts.Name(lts.ActionID(id)))
		}
	}
	for s := int32(0); s < int32(a.NumStates()); s++ {
		sa, sb := a.Succ(s), b.Succ(s)
		if len(sa) != len(sb) {
			t.Fatalf("%s: state %d has %d successors vs %d", ctx, s, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: state %d transition %d: %+v vs %+v", ctx, s, i, sa[i], sb[i])
			}
		}
	}
}

// TestParallelMatchesSequential checks, for every registered benchmark at
// 2 threads x 2 ops, that parallel exploration reproduces the sequential
// LTS exactly (including the deadlock list).
func TestParallelMatchesSequential(t *testing.T) {
	for _, alg := range algorithms.All() {
		alg := alg
		t.Run(alg.ID, func(t *testing.T) {
			t.Parallel()
			seq, seqInfo := exploreWith(t, alg, 2, 2, 1)
			for _, workers := range []int{2, 4} {
				par, parInfo := exploreWith(t, alg, 2, 2, workers)
				ctx := fmt.Sprintf("%s workers=%d", alg.ID, workers)
				assertSameLTS(t, ctx, seq, par)
				if len(seqInfo.Deadlocks) != len(parInfo.Deadlocks) {
					t.Fatalf("%s: %d deadlocks vs %d", ctx, len(seqInfo.Deadlocks), len(parInfo.Deadlocks))
				}
				for i := range seqInfo.Deadlocks {
					if seqInfo.Deadlocks[i] != parInfo.Deadlocks[i] {
						t.Fatalf("%s: deadlock %d is state %d vs %d",
							ctx, i, seqInfo.Deadlocks[i], parInfo.Deadlocks[i])
					}
				}
			}
		})
	}
}

// TestParallelVerdictsMatchSequential checks that the Table II verdicts
// (linearizability for every benchmark, lock-freedom for the lock-free
// ones) are identical under sequential and parallel exploration.
func TestParallelVerdictsMatchSequential(t *testing.T) {
	for _, alg := range algorithms.TableII() {
		alg := alg
		t.Run(alg.ID, func(t *testing.T) {
			t.Parallel()
			cfg := algorithms.Config{Threads: 2, Ops: 2}
			seqC := core.Config{Threads: 2, Ops: 2, Workers: 1}
			parC := core.Config{Threads: 2, Ops: 2, Workers: 4}
			seqLin, err := core.CheckLinearizability(alg.Build(cfg), alg.Spec(cfg), seqC)
			if err != nil {
				t.Fatal(err)
			}
			parLin, err := core.CheckLinearizability(alg.Build(cfg), alg.Spec(cfg), parC)
			if err != nil {
				t.Fatal(err)
			}
			if seqLin.Linearizable != parLin.Linearizable ||
				seqLin.ImplStates != parLin.ImplStates ||
				seqLin.ImplQuotientStates != parLin.ImplQuotientStates {
				t.Fatalf("linearizability diverged: seq %+v par %+v", seqLin, parLin)
			}
			if alg.LockBased {
				return
			}
			seqLF, err := core.CheckLockFreeAuto(alg.Build(cfg), seqC)
			if err != nil {
				t.Fatal(err)
			}
			parLF, err := core.CheckLockFreeAuto(alg.Build(cfg), parC)
			if err != nil {
				t.Fatal(err)
			}
			if seqLF.LockFree != parLF.LockFree || seqLF.ImplStates != parLF.ImplStates {
				t.Fatalf("lock-freedom diverged: seq %+v par %+v", seqLF, parLF)
			}
		})
	}
}

// TestParallelStress drives the parallel explorer at worker counts well
// above the core count on a larger instance, so the race detector sees
// heavy shard-table and frontier contention.
func TestParallelStress(t *testing.T) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	threads, ops := 2, 2
	seq, _ := exploreWith(t, alg, threads, ops, 1)
	for _, workers := range []int{3, 8, 4 * runtime.GOMAXPROCS(0)} {
		par, _ := exploreWith(t, alg, threads, ops, workers)
		assertSameLTS(t, fmt.Sprintf("ms-queue workers=%d", workers), seq, par)
	}
}

// TestParallelStateLimit checks that the parallel explorer reports the
// same budget error as the sequential one and that a budget equal to the
// state count succeeds. The memory-budget variants pin that MaxStates
// counts interned states, not resident ones: spilling states to disk
// must neither loosen nor tighten the limit.
func TestParallelStateLimit(t *testing.T) {
	alg, err := algorithms.ByID("treiber")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 1})
	exact, err := machine.Explore(prog, machine.Options{Threads: 2, Ops: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := exact.NumStates()
	for _, workers := range []int{1, 4} {
		for _, memBudget := range []int64{0, 1} {
			opt := machine.Options{Threads: 2, Ops: 1, Workers: workers, MemBudget: memBudget, SpillDir: t.TempDir(), Backend: statestore.Runtime()}
			ctx := fmt.Sprintf("workers=%d membudget=%d", workers, memBudget)
			opt.MaxStates = n
			if _, err := machine.Explore(prog, opt); err != nil {
				t.Fatalf("%s: budget of exactly %d states should succeed: %v", ctx, n, err)
			}
			opt.MaxStates = n - 1
			_, err := machine.Explore(prog, opt)
			lim, ok := err.(*machine.StateLimitError)
			if !ok {
				t.Fatalf("%s: expected StateLimitError at budget %d, got %v", ctx, n-1, err)
			}
			if lim.Limit != n-1 {
				t.Fatalf("%s: error reports limit %d, want %d", ctx, lim.Limit, n-1)
			}
		}
	}
}

// newCounter wraps a store and counts the states it interns.
type newCounter struct {
	statecodec.Store
	fresh *atomic.Int64
}

func (s newCounter) Intern(key []byte) statecodec.Ref {
	ref := s.Store.Intern(key)
	if ref.New {
		s.fresh.Add(1)
	}
	return ref
}

// TestStateLimitStopsExpansion checks that an exploration that outgrows
// MaxStates stops expanding its last level about where the limit falls,
// instead of interning the successors of the whole level first. The
// limit sits one state into the widest BFS level, so the merge of the
// level before it fails almost at once; only the chunks the workers had
// already claimed may add states past the limit.
func TestStateLimitStopsExpansion(t *testing.T) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	full, err := machine.Explore(prog, machine.Options{Threads: 2, Ops: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// State IDs are BFS discovery order, so each level is an ID range.
	maxOut := 0
	depth := make([]int, full.NumStates())
	for s := range full.NumStates() {
		out := full.Succ(int32(s))
		maxOut = max(maxOut, len(out))
		for _, tr := range out {
			if tr.Dst > int32(s) && depth[tr.Dst] == 0 {
				depth[tr.Dst] = depth[s] + 1
			}
		}
	}
	width := map[int]int{}
	widest := 0
	for _, d := range depth {
		width[d]++
		if width[d] > width[widest] {
			widest = d
		}
	}
	limit := 0
	for depth[limit] != widest {
		limit++
	}
	limit++
	for _, workers := range []int{1, 2} {
		var fresh atomic.Int64
		_, err := machine.Explore(prog, machine.Options{
			Threads: 2, Ops: 2, Workers: workers, MaxStates: limit,
			Backend: statecodec.Backend{Open: func(cfg statecodec.Config) (statecodec.Store, error) {
				st, err := statecodec.OpenMem(cfg)
				return newCounter{st, &fresh}, err
			}},
		})
		if _, ok := err.(*machine.StateLimitError); !ok {
			t.Fatalf("workers=%d: expected StateLimitError at %d states, got %v", workers, limit, err)
		}
		bound := int64(limit + workers*64*maxOut)
		t.Logf("workers=%d: %d states interned for a limit of %d (widest level %d states, max out-degree %d)", workers, fresh.Load(), limit, width[widest], maxOut)
		if fresh.Load() > bound {
			t.Fatalf("workers=%d: %d states interned for a limit of %d, want at most %d", workers, fresh.Load(), limit, bound)
		}
	}
}
