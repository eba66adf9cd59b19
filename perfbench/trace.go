package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// side of the call. Spans of one job share its job ID; Parent is the
// index of the enclosing span (-1 for a root).
type span struct {
	Name   string             `json:"name"`
	Job    int                `json:"job"`
	Parent int                `json:"parent"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Bytes  uint64             `json:"alloc_bytes"`
	Allocs uint64             `json:"allocs"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	// Extra marks a call the pipeline does not make itself: the
	// benchmark repeats it on the same input only to time it apart
	// (lts.TauSCCs and lts.CollapseTauSCCs, which bisim runs inside its
	// refinement). Its time is subtracted when comparing traced and
	// untraced pass times.
	Extra bool `json:"extra,omitempty"`

	bytes0, allocs0 uint64
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// layer is the package a span's calls go into: its name up to the dot.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. It is safe for use
// from several goroutines; parents are passed explicitly, so concurrent
// clients can each own a subtree.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	sample [2]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.sample[0].Name = "/gc/heap/allocs:bytes"
	t.sample[1].Name = "/gc/heap/allocs:objects"
	return t
}

// allocs reads the process's cumulative heap allocation. Callers hold
// t.mu.
func (t *tracer) allocs() (bytes, objects uint64) {
	metrics.Read(t.sample[:])
	return t.sample[0].Value.Uint64(), t.sample[1].Value.Uint64()
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(parent, job int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, o := t.allocs()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent,
		Start: time.Since(t.epoch), bytes0: b, allocs0: o})
	return len(t.spans) - 1
}

// extra opens a span for a measurement-only repeat of a pipeline call.
func (t *tracer) extra(parent, job int, name string) int {
	i := t.begin(parent, job, name)
	t.mu.Lock()
	t.spans[i].Extra = true
	t.mu.Unlock()
	return i
}

// end closes span i, recording its allocation delta and attributes
// given as name/value pairs.
func (t *tracer) end(i int, attrs ...any) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	b, o := t.allocs()
	s := &t.spans[i]
	s.End = now
	s.Bytes, s.Allocs = b-s.bytes0, o-s.allocs0
	for k := 0; k+1 < len(attrs); k += 2 {
		if s.Attrs == nil {
			s.Attrs = make(map[string]float64)
		}
		s.Attrs[attrs[k].(string)] += toFloat(attrs[k+1])
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	panic(fmt.Sprintf("perfbench: unsupported span attribute type %T", v))
}

// mark returns the number of spans recorded so far, for since.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded after mark m, with parent
// indices rebased to the copy (parents before m become -1).
func (t *tracer) since(m int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans[m:]...)
	for i := range out {
		if out[i].Parent >= m {
			out[i].Parent -= m
		} else {
			out[i].Parent = -1
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part its
// child spans cover. Measurement-only spans count only when withExtra
// is set; either way their time is not charged to their parent.
func selfTimes(spans []span, withExtra bool) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].dur()
		}
	}
	out := make(map[string]time.Duration)
	for i := range spans {
		if withExtra || !spans[i].Extra {
			out[spans[i].layer()] += spans[i].dur() - child[i]
		}
	}
	return out
}

// extraTime totals the measurement-only spans.
func extraTime(spans []span) time.Duration {
	var d time.Duration
	for i := range spans {
		if spans[i].Extra {
			d += spans[i].dur()
		}
	}
	return d
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
