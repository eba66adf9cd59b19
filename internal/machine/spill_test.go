package machine_test

// Budget-independence of the explorer: the LTS must be byte-identical —
// down to the Aldebaran (.aut) rendering — whichever codec encodes the
// states, however many workers expand the frontier and however small the
// memory budget forces the intern table and frontier to spill, and every
// spill temp file must be gone when exploration ends, however it ends.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/statecodec"
	"repro/internal/statestore"
	"repro/internal/vet"
)

// autBytes explores one benchmark instance and renders the LTS in .aut
// form, failing the test on any error.
func autBytes(t *testing.T, alg *algorithms.Algorithm, opt machine.Options) []byte {
	t.Helper()
	prog := alg.Build(algorithms.Config{Threads: opt.Threads, Ops: opt.Ops})
	if opt.Encoding != machine.EncodingLegacy {
		opt.Layout = vet.StateLayout(prog, vet.Options{Threads: opt.Threads, Ops: opt.Ops})
	}
	l, err := machine.Explore(prog, opt)
	if err != nil {
		t.Fatalf("%s (%+v): %v", alg.ID, opt, err)
	}
	var buf bytes.Buffer
	if err := lts.WriteAUT(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPackedMatchesLegacyAUT checks, for every Table II benchmark at
// 2 threads x 2 ops, that the packed codec (with vet-narrowed layouts)
// reproduces the legacy exploration byte for byte in .aut form, at one
// worker and at eight.
func TestPackedMatchesLegacyAUT(t *testing.T) {
	for _, alg := range algorithms.TableII() {
		alg := alg
		t.Run(alg.ID, func(t *testing.T) {
			t.Parallel()
			legacy := autBytes(t, alg, machine.Options{
				Threads: 2, Ops: 2, Workers: 1, Encoding: machine.EncodingLegacy,
			})
			for _, workers := range []int{1, 8} {
				packed := autBytes(t, alg, machine.Options{
					Threads: 2, Ops: 2, Workers: workers, Encoding: machine.EncodingPacked,
				})
				if !bytes.Equal(legacy, packed) {
					t.Fatalf("workers=%d: packed .aut differs from legacy (%dB vs %dB)",
						workers, len(packed), len(legacy))
				}
			}
		})
	}
}

// requireEmptyDir fails the test if any entry survives in dir — the
// spill-leak check.
func requireEmptyDir(t *testing.T, dir, when string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("%s: leaked spill artifact %s", when, e.Name())
	}
}

// TestSpillIdenticalLTS forces constant spilling with a 1-byte budget
// and checks the LTS is byte-identical to the unbudgeted run at one and
// eight workers, that spilling actually happened, and that no temp file
// survives the exploration.
func TestSpillIdenticalLTS(t *testing.T) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	ref, err := machine.Explore(prog, machine.Options{Threads: 2, Ops: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := lts.WriteAUT(&want, ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		l, info, err := machine.ExploreWithInfo(prog, machine.Options{
			Threads: 2, Ops: 2, Workers: workers, MemBudget: 1, SpillDir: dir,
			Backend: statestore.Runtime(),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if info.Stats.SpillFiles == 0 {
			t.Fatalf("workers=%d: a 1-byte budget did not spill: %+v", workers, info.Stats)
		}
		var got bytes.Buffer
		if err := lts.WriteAUT(&got, l); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("workers=%d: spilled .aut differs from in-RAM .aut", workers)
		}
		requireEmptyDir(t, dir, fmt.Sprintf("workers=%d after success", workers))
	}
}

// TestSpillCleanupOnCancel checks satellite cleanup contract #1: a
// canceled exploration removes every spill temp file on its way out.
func TestSpillCleanupOnCancel(t *testing.T) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 3, Ops: 3})
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := machine.ExploreContext(ctx, prog, machine.Options{
			Threads: 3, Ops: 3, Workers: 4, MemBudget: 1, SpillDir: dir,
			Backend: statestore.Runtime(),
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		var ce *machine.CanceledError
		if err == nil {
			// The instance finished before the cancel landed; the cleanup
			// check below is still meaningful.
			break
		}
		if !errors.As(err, &ce) {
			t.Fatalf("expected CanceledError, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled exploration did not return")
	}
	requireEmptyDir(t, dir, "after cancellation")
}

// TestSpillCleanupOnStateLimit checks cleanup and the MaxStates contract
// under spilling: the budget counts interned states (not resident ones),
// the error reports the configured limit, and no temp file survives.
func TestSpillCleanupOnStateLimit(t *testing.T) {
	alg, err := algorithms.ByID("treiber")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	dir := t.TempDir()
	_, err = machine.Explore(prog, machine.Options{
		Threads: 2, Ops: 2, Workers: 4, MaxStates: 500, MemBudget: 1, SpillDir: dir,
		Backend: statestore.Runtime(),
	})
	var lim *machine.StateLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("expected StateLimitError, got %v", err)
	}
	if lim.Limit != 500 {
		t.Fatalf("error reports limit %d, want 500", lim.Limit)
	}
	requireEmptyDir(t, dir, "after state limit")
}

// genRecorder wraps a store opener and, after every level, records the
// spill generation files that appeared under the spill directory (by
// name, with a digest of their bytes) before the store can remove them.
type genRecorder struct {
	gens map[string]string
}

func (g *genRecorder) open(cfg statecodec.Config) (statecodec.Store, error) {
	st, err := statestore.Backend(cfg)
	if err != nil {
		return nil, err
	}
	return &recordingStore{Store: st, dir: cfg.Dir, rec: g}, nil
}

type recordingStore struct {
	statecodec.Store
	dir string
	rec *genRecorder
}

func (s *recordingStore) EndLevel() error {
	if err := s.Store.EndLevel(); err != nil {
		return err
	}
	return filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), "gen-") {
			return err
		}
		if _, ok := s.rec.gens[d.Name()]; ok {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		s.rec.gens[d.Name()] = fmt.Sprintf("%d:%x", len(b), sha256.Sum256(b))
		return nil
	})
}

// TestSpillGenerationsDeterministic checks that spilling is a function
// of the explored program alone: under a 1-byte budget (a flush after
// every level) two runs at one worker and runs at two and eight workers
// write byte-identical generation files, in the same sequence.
func TestSpillGenerationsDeterministic(t *testing.T) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: 2, Ops: 2})
	var want map[string]string
	for i, workers := range []int{1, 1, 2, 8} {
		rec := &genRecorder{gens: map[string]string{}}
		dir := t.TempDir()
		_, err := machine.Explore(prog, machine.Options{
			Threads: 2, Ops: 2, Workers: workers, MemBudget: 1, SpillDir: dir,
			Backend: statecodec.Backend{Open: rec.open},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rec.gens) < 5 {
			t.Fatalf("workers=%d: only %d generation files written", workers, len(rec.gens))
		}
		if i == 0 {
			want = rec.gens
			continue
		}
		if !maps.Equal(rec.gens, want) {
			t.Fatalf("run %d (workers=%d): generation files differ from the first run:\n%v\nvs\n%v", i, workers, rec.gens, want)
		}
		requireEmptyDir(t, dir, fmt.Sprintf("run %d", i))
	}
}

// lateFaultProgram is a counter whose increment faults once the count
// reaches 4: the fault sits several BFS levels deep, after the spilling
// store has flushed generations.
func lateFaultProgram() *machine.Program {
	return &machine.Program{
		Name:    "late-fault",
		Globals: machine.Schema{Names: []string{"c"}, Kinds: []machine.VarKind{machine.KVal}},
		Methods: []machine.Method{{
			Name: "Inc",
			Body: []machine.Stmt{
				{Label: "L1", Exec: func(c *machine.Ctx) { c.Goto(1) }},
				{Label: "L2", Exec: func(c *machine.Ctx) {
					if c.V(0) >= 4 {
						panic("counter overflow")
					}
					c.SetV(0, c.V(0)+1)
					c.Return(machine.ValOK)
				}},
			},
		}},
	}
}

// TestSpillCleanupOnFault checks that a program fault several levels
// deep fails the exploration with the same *machine.RuntimeError at
// every worker count and budget, and that the spilling store removes
// every file it wrote on the way out.
func TestSpillCleanupOnFault(t *testing.T) {
	prog := lateFaultProgram()
	var first string
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 1} {
			rec := &genRecorder{gens: map[string]string{}}
			dir := t.TempDir()
			_, err := machine.Explore(prog, machine.Options{
				Threads: 3, Ops: 2, Workers: workers, MemBudget: budget, SpillDir: dir,
				Backend: statecodec.Backend{Open: rec.open},
			})
			var re *machine.RuntimeError
			if !errors.As(err, &re) || re.Method != "Inc" || re.Label != "L2" || re.Value != "counter overflow" {
				t.Fatalf("workers=%d budget=%d: err = %v, want the counter overflow at Inc.L2", workers, budget, err)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("workers=%d budget=%d: error %q differs from %q", workers, budget, err, first)
			}
			if budget > 0 && len(rec.gens) == 0 {
				t.Fatalf("workers=%d: nothing spilled before the fault", workers)
			}
			requireEmptyDir(t, dir, fmt.Sprintf("workers=%d budget=%d after a fault", workers, budget))
		}
	}
	t.Log(first)
}

// benchExplore is the shared benchmark body.
func benchExplore(b *testing.B, opt machine.Options) {
	alg, err := algorithms.ByID("ms-queue")
	if err != nil {
		b.Fatal(err)
	}
	prog := alg.Build(algorithms.Config{Threads: opt.Threads, Ops: opt.Ops})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, info, err := machine.ExploreWithInfo(prog, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(info.Stats.BytesPerState(), "B/state")
			_ = l
		}
	}
}

// BenchmarkExplorePacked is the CI smoke benchmark for the packed codec.
func BenchmarkExplorePacked(b *testing.B) {
	benchExplore(b, machine.Options{Threads: 2, Ops: 2, Encoding: machine.EncodingPacked})
}

func BenchmarkExploreLegacy(b *testing.B) {
	benchExplore(b, machine.Options{Threads: 2, Ops: 2, Encoding: machine.EncodingLegacy})
}

func BenchmarkExplorePackedSpill(b *testing.B) {
	benchExplore(b, machine.Options{Threads: 2, Ops: 2, MemBudget: 1, SpillDir: b.TempDir(), Backend: statestore.Runtime()})
}
