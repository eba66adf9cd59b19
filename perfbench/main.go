// Command perfbench is the repository's standing time-to-verdict
// benchmark. It runs one workload for a fixed time, checks every
// verdict against answers written down independently of the code under
// test, and prints every metric by name with its unit; the last line of
// standard output is one JSON object with the results.
//
//	perfbench --workload table2 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs.
// With --trace 1 it alternates untraced passes with passes that drive
// each job through the same public calls an api.Run session makes,
// recording a span around each call, and reports the per-layer metrics,
// each layer's self time and the tracing overhead; the spans are
// written to <out>/spans/<workload>-seed<n>.jsonl when the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/statestore"
)

// setupReps is how many set-ups a run times before each pass; setup_s is
// their median.
const setupReps = 21

// maxErrors bounds how many failure messages a run keeps for printing.
const maxErrors = 20

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of untraced runs (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"miss_p50_ms", "ms", "lower"},
}

// perLayer are the metrics of traced runs (--trace 1). Per-pass figures
// are medians over the run's traced passes; a layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"api.run_overhead_ms", "ms", "lower"},
	{"api.self_s", "s", "lower"},
	{"core.stages", "count", "lower"},
	{"core.stages_cached", "count", "higher"},
	{"core.memo_hit_ratio", "ratio", "higher"},
	{"core.self_s", "s", "lower"},
	{"bbvl.load_ms", "ms", "lower"},
	{"bbvl.build_ms", "ms", "lower"},
	{"bbvl.self_s", "s", "lower"},
	{"vet.layout_ms", "ms", "lower"},
	{"vet.reduce_s", "s", "lower"},
	{"vet.confluent_stmts", "count", "higher"},
	{"vet.check_s", "s", "lower"},
	{"vet.self_s", "s", "lower"},
	{"machine.explore_s", "s", "lower"},
	{"machine.states", "count", "lower"},
	{"machine.transitions", "count", "lower"},
	{"machine.states_per_s", "1/s", "higher"},
	{"machine.bytes_per_state", "B", "lower"},
	{"machine.alloc_mb", "MB", "lower"},
	{"machine.allocs", "count", "lower"},
	{"machine.pruned_states", "count", "higher"},
	{"machine.pruned_ratio", "ratio", "higher"},
	{"machine.self_s", "s", "lower"},
	{"statestore.explore_s", "s", "lower"},
	{"statestore.peak_resident_mb", "MB", "lower"},
	{"statestore.spill_files", "count", "lower"},
	{"statestore.table_flushes", "count", "lower"},
	{"statestore.frontier_spills", "count", "lower"},
	{"statestore.self_s", "s", "lower"},
	{"lts.tau_scc_ms", "ms", "lower"},
	{"lts.collapse_s", "s", "lower"},
	{"lts.collapsed_states", "count", "lower"},
	{"lts.self_s", "s", "lower"},
	{"bisim.refine_small_s", "s", "lower"},
	{"bisim.refine_large_s", "s", "lower"},
	{"bisim.rounds", "count", "lower"},
	{"bisim.blocks", "count", "lower"},
	{"bisim.alloc_mb", "MB", "lower"},
	{"bisim.quotient_build_ms", "ms", "lower"},
	{"bisim.equivalence_s", "s", "lower"},
	{"bisim.self_s", "s", "lower"},
	{"refine.trace_inclusion_ms", "ms", "lower"},
	{"refine.pairs", "count", "lower"},
	{"refine.self_s", "s", "lower"},
	{"serve.submit_ms", "ms", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.job_overhead_ms", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.hit_p90_ms", "ms", "lower"},
	{"serve.self_s", "s", "lower"},
	{"artifact.drain_ms", "ms", "lower"},
	{"artifact.reopen_ms", "ms", "lower"},
	{"artifact.store_hit_p50_ms", "ms", "lower"},
	{"artifact.bytes", "B", "lower"},
	{"artifact.self_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
}

// workload is one benchmark input set.
type workload interface {
	// setup performs and times the work before the first job goes out.
	setup() (time.Duration, error)
	// pass runs the input set once, untraced, recording into r.
	pass(ctx context.Context, r *run)
	// tracedPass runs the input set once with spans around each layer.
	tracedPass(ctx context.Context, r *run)
	// procs is how many threads the workload's jobs run Go code on at
	// once: the exploration or server workers its inputs ask for.
	procs() int
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"table2", "msqueue-2x3", "bbvl-reduction", "bbvd"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "table2":
		return apiWorkload{jobs: table2Jobs()}, nil
	case "msqueue-2x3":
		return apiWorkload{jobs: msQueueJobs()}, nil
	case "bbvl-reduction":
		jobs, err := bbvlJobs()
		if err != nil {
			return nil, err
		}
		return apiWorkload{jobs: jobs}, nil
	case "bbvd":
		return newBBVD(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// run accumulates one benchmark run's measurements.
type run struct {
	rng     *rand.Rand
	tr      *tracer
	nextJob int

	attempted, failed int
	errs              []string

	setup   samples // set-up times, s
	wall    samples // untraced pass times, s
	latency samples // per-job time to verdict of cache-missing jobs, s
	hits    samples // bbvd in-memory cache hits, POST to done, s

	// untraced holds each job's untraced outcome, which its traced runs
	// must reproduce exactly.
	untraced map[string]outcome
	// tracedWall and tracedNet are traced pass times, s, with and
	// without the measurement-only spans.
	tracedWall, tracedNet samples
	// layer holds per-layer metrics: one value per traced (or, for
	// api.run_overhead_ms and core.*, untraced) pass.
	layer map[string]samples
	// selfShare holds each layer's share of traced pass time.
	selfShare map[string]samples
}

func newRun(seed uint64, trace bool) *run {
	r := &run{
		rng:       rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		untraced:  make(map[string]outcome),
		layer:     make(map[string]samples),
		selfShare: make(map[string]samples),
	}
	if trace {
		r.tr = newTracer()
	}
	return r
}

func (r *run) fail(name string, err error) {
	r.failed++
	if len(r.errs) < maxErrors {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, err))
	}
}

// agree checks a traced outcome against the same job's untraced one:
// verdicts, quotient sizes and the raw state count must all match.
func (r *run) agree(name string, o outcome) error {
	if u, ok := r.untraced[name]; ok && u != o {
		return fmt.Errorf("traced run answered %+v, untraced run %+v", o, u)
	}
	return nil
}

// perPass records one pass's value of a per-layer metric; a pass that
// could not measure it (NaN) adds nothing.
func (r *run) perPass(name string, v float64) {
	if !math.IsNaN(v) {
		r.layer[name] = append(r.layer[name], v)
	}
}

// recordStages records one untraced pass's session stage counts.
func (r *run) recordStages(stages, cached int) {
	r.perPass("core.stages", float64(stages))
	r.perPass("core.stages_cached", float64(cached))
	if stages > 0 {
		r.perPass("core.memo_hit_ratio", float64(cached)/float64(stages))
	}
}

// recordTraced turns one traced pass's spans into per-layer figures.
// The first onClock spans ran within the pass's wall time; the rest are
// calls made after its clock stopped, which count towards the layer
// figures but not towards shares of the pass time. Shares leave out the
// measurement-only spans, whose time is also inside bisim.refine.
func (r *run) recordTraced(wall time.Duration, spans []span, onClock int) {
	net := wall - extraTime(spans[:onClock])
	r.tracedWall = append(r.tracedWall, wall.Seconds())
	r.tracedNet = append(r.tracedNet, net.Seconds())
	for k, v := range layerValues(spans) {
		r.perPass(k, v)
	}
	for layer, d := range selfTimes(spans, true) {
		r.perPass(layer+".self_s", d.Seconds())
	}
	for layer, d := range selfTimes(spans[:onClock], false) {
		r.selfShare[layer] = append(r.selfShare[layer], d.Seconds()/net.Seconds())
	}
	r.perPass("trace.spans", float64(len(spans)))
}

// refinerSwitchStates is the collapsed-LTS size at which bisim's auto
// refiner switches from the signature refiner to the splitter; refine
// times are split there so a change to either refiner shows on its own.
const refinerSwitchStates = 4096

// layerValues sums the figures of one pass's spans into per-layer
// metrics.
func layerValues(spans []span) map[string]float64 {
	v := make(map[string]float64)
	var states, encoded, pruned, exploreS float64
	for i := range spans {
		s := &spans[i]
		d := s.dur().Seconds()
		a := s.Attrs
		switch s.Name {
		case "bbvl.load":
			v["bbvl.load_ms"] += d * 1e3
		case "bbvl.build":
			v["bbvl.build_ms"] += d * 1e3
		case "vet.layout":
			v["vet.layout_ms"] += d * 1e3
		case "vet.reduce":
			v["vet.reduce_s"] += d
			v["vet.confluent_stmts"] += a["confluent"]
		case "vet.check":
			v["vet.check_s"] += d
		case "machine.explore":
			exploreS += d
			states += a["states"]
			encoded += a["encoded_bytes"]
			pruned += a["pruned"]
			v["machine.transitions"] += a["transitions"]
			v["machine.alloc_mb"] += float64(s.Bytes) / (1 << 20)
			v["machine.allocs"] += float64(s.Allocs)
		case "statestore.explore":
			v["statestore.explore_s"] += d
			v["statestore.peak_resident_mb"] = max(v["statestore.peak_resident_mb"], a["peak_resident"]/(1<<20))
			v["statestore.spill_files"] += a["spill_files"]
			v["statestore.table_flushes"] += a["table_flushes"]
			v["statestore.frontier_spills"] += a["frontier_spills"]
		case "lts.tau_scc":
			v["lts.tau_scc_ms"] += d * 1e3
		case "lts.collapse":
			v["lts.collapse_s"] += d
			v["lts.collapsed_states"] += a["collapsed"]
		case "bisim.refine":
			if a["collapsed"] >= refinerSwitchStates {
				v["bisim.refine_large_s"] += d
			} else {
				v["bisim.refine_small_s"] += d
			}
			v["bisim.rounds"] += a["rounds"]
			v["bisim.blocks"] += a["blocks"]
			v["bisim.alloc_mb"] += float64(s.Bytes) / (1 << 20)
		case "bisim.quotient":
			v["bisim.quotient_build_ms"] += d * 1e3
		case "bisim.equivalence":
			v["bisim.equivalence_s"] += d
		case "refine.trace_inclusion":
			v["refine.trace_inclusion_ms"] += d * 1e3
			v["refine.pairs"] += a["pairs"]
		}
	}
	if exploreS > 0 {
		v["machine.explore_s"] = exploreS
		v["machine.states"] = states
		v["machine.states_per_s"] = states / exploreS
		v["machine.pruned_states"] = pruned
		if states > 0 {
			v["machine.bytes_per_state"] = encoded / states
		}
		if pruned+states > 0 {
			v["machine.pruned_ratio"] = pruned / (pruned + states)
		}
	}
	return v
}

// report is the outcome of one run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errs  []string
	lines []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options configures one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the span file
}

// execute runs one workload for the configured time and reports it.
func execute(ctx context.Context, o options) (*report, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	// The process gets no more Ps than the workload has workers. A
	// sequential workload then runs its garbage collection on its own
	// thread instead of handing work to an idle second vCPU some 25
	// times a second, which on a shared host made its pass times follow
	// the hypervisor's wake-up latency rather than the program.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(w.procs(), runtime.NumCPU())))
	r := newRun(o.seed, o.trace)
	// Set-ups are repeated before every pass, so their median spans the
	// whole run like the pass times do. They are timed on a collected
	// heap, as at process start, so that a pass's garbage does not bill
	// them.
	setups := func() error {
		runtime.GC()
		for range setupReps {
			d, err := w.setup()
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			r.setup = append(r.setup, d.Seconds())
		}
		return nil
	}
	// Run whole passes until the time is up; a pass that would end more
	// than half a pass past the deadline is not started.
	budget := time.Duration(o.seconds * float64(time.Second))
	begin := time.Now()
	if !o.trace {
		// Warm-up: the first pass grows the heap and fills the
		// allocator's caches. Its answers are checked, its times dropped.
		if err := setups(); err != nil {
			return nil, err
		}
		w.pass(ctx, r)
		r.wall, r.latency, r.hits = nil, nil, nil
	}
	var iters samples
	for len(iters) == 0 || time.Since(begin)+time.Duration(iters.median()/2*float64(time.Second)) < budget {
		t := time.Now()
		if err := setups(); err != nil {
			return nil, err
		}
		w.pass(ctx, r)
		if o.trace {
			w.tracedPass(ctx, r)
		}
		iters = append(iters, time.Since(t).Seconds())
	}
	rep := &report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric), errs: r.errs}
	if o.trace {
		rep.perLayer(r)
		if o.out != "" {
			path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
			if err := r.tr.write(path); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			rep.lines = append(rep.lines, "spans written to "+path)
		}
	} else {
		rep.endToEnd(r)
	}
	return rep, nil
}

// add records one metric. A series left empty because every job failed
// reads 0; the run is then reported incorrect anyway.
func (rep *report) add(name, unit string, v float64, detail string) {
	if math.IsNaN(v) {
		v = 0
	}
	rep.Metrics[name] = metric{Value: v, Unit: unit}
	rep.print1(name, unit, v, detail)
}

// print1 adds one human-readable metric line.
func (rep *report) print1(name, unit string, v float64, detail string) {
	line := fmt.Sprintf("%-28s %14.6g %-6s", name, v, unit)
	if detail != "" {
		line += "  " + detail
	}
	rep.lines = append(rep.lines, line)
}

func (rep *report) endToEnd(r *run) {
	rep.add("wall_s", "s", r.wall.median(), r.wall.describe(1))
	rep.add("setup_s", "s", r.setup.median(), r.setup.describe(1))
	rep.add("peak_rss_mb", "MB", float64(statestore.ProcessPeakRSS())/(1<<20), "")
	rep.add("miss_p50_ms", "ms", r.latency.median()*1e3, r.latency.describe(1e3))
	// Printed but kept out of the JSON metrics: error_rate is 0 when all
	// is well, and cache hits happen only in bbvd.
	rep.print1("error_rate", "ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)),
		fmt.Sprintf("%d failed of %d attempted", rep.Failed, rep.Attempted))
	if len(r.hits) > 0 {
		rep.print1("hit_p50_ms", "ms", r.hits.median()*1e3, r.hits.describe(1e3))
		rep.print1("hit_p90_ms", "ms", r.hits.quantile(0.9)*1e3, "")
	}
}

func (rep *report) perLayer(r *run) {
	for _, m := range perLayer {
		v := 0.0
		detail := ""
		if s, ok := r.layer[m.Name]; ok && len(s) > 0 {
			v = s.median()
			detail = s.describe(1)
		}
		if m.Name == "trace.overhead_pct" && len(r.wall) > 0 && len(r.tracedNet) > 0 {
			v = (r.tracedNet.median()/r.wall.median() - 1) * 100
			detail = fmt.Sprintf("traced pass %s s (%s s with repeated lts calls), untraced %s s",
				r.tracedNet.describe(1), r.tracedWall.describe(1), r.wall.describe(1))
		}
		rep.add(m.Name, m.Unit, v, detail)
	}
	layers := make([]string, 0, len(r.selfShare))
	for l := range r.selfShare {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, k int) bool {
		return r.selfShare[layers[i]].median() > r.selfShare[layers[k]].median()
	})
	parts := make([]string, 0, len(layers))
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, r.selfShare[l].median()*100))
	}
	rep.lines = append(rep.lines, "self time as a share of traced pass time (concurrent clients add up past 100%): "+strings.Join(parts, ", "))
}

// print writes the human-readable lines, the failures, and the JSON
// result as the last line.
func (rep *report) print(w io.Writer) error {
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(w, "FAILED:", e)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed that permutes job order (and, in bbvd, client assignment)")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from traced passes, 0 end-to-end metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory the span file is written under (empty: none)")
	flag.Parse()
	if !slices.Contains(workloadNames, o.workload) || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <"+strings.Join(workloadNames, "|")+"> --seconds >0 --trace 0|1")
		os.Exit(2)
	}
	o.trace = trace == 1
	rep, err := execute(context.Background(), o)
	if err == nil {
		err = rep.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
