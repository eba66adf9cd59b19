package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the workloads and
// metrics this program actually reports.
func TestBenchmarkFileMatches(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program has %v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program has %v", b.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload once untraced and once traced, and
// checks that every metric is printed with its unit, that no job failed
// or answered wrongly, and that the traced runs reproduced the untraced
// verdicts (a disagreement counts as a failed job).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once; skipped in -short mode")
	}
	t.Setenv("TMPDIR", t.TempDir())
	b := readBenchmarkFile(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			rep, err := execute(context.Background(), options{workload: w, seed: 1, seconds: 1e-3, trace: trace, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d jobs failed; output:\n%s", w, trace, rep.Failed, rep.Attempted, out.String())
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, want %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `( |$)`)
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit || !line.Match(out.Bytes()) {
					t.Errorf("%s trace=%v: metric %s [%s] not printed with its unit", w, trace, m.Name, m.Unit)
				}
			}
			if !trace {
				if !regexp.MustCompile(`(?m)^error_rate +0 ratio `).Match(out.Bytes()) {
					t.Errorf("%s: error_rate is not 0:\n%s", w, out.String())
				}
				if v := rep.Metrics["wall_s"].Value; !(v > 0) {
					t.Errorf("%s: wall_s = %v, want > 0", w, v)
				}
				if w == "bbvd" {
					for _, name := range []string{"hit_p50_ms", "hit_p90_ms"} {
						if !regexp.MustCompile(`(?m)^` + name + ` +\S+ ms `).Match(out.Bytes()) {
							t.Errorf("bbvd: %s not printed with its unit:\n%s", name, out.String())
						}
					}
				}
			}
			if trace {
				if v := rep.Metrics["trace.spans"].Value; !(v > 0) {
					t.Errorf("%s: traced run recorded no spans", w)
				}
			}
			var last map[string]any
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Errorf("%s trace=%v: last line is not JSON: %v", w, trace, err)
			}
		}
	}
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}
