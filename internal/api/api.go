// Package api defines the machine-readable job and result schema shared
// by the bbverify CLI (`check -json`) and the bbvd verification service:
// the JobSpec a client submits, the canonical content hash under which
// results are cached, the Result JSON both front ends emit, and the
// runner that executes a job with cancellation. Keeping the schema in one
// place makes CLI and server outputs byte-diffable.
package api

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bbvl"
	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/ktrace"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/statecodec"
	"repro/internal/vet"
)

// Job kinds accepted by Run and the bbvd service.
const (
	KindCheck   = "check"
	KindExplore = "explore"
	KindKTrace  = "ktrace"
)

// JobSpec is one verification request: which packaged algorithm (or
// inline BBVL model) to run, the instance bounds, and how to run it. Workers and TimeoutMS tune the
// execution only — the produced result is identical for every value (the
// explorer is deterministic per worker count), so neither enters the
// cache key.
type JobSpec struct {
	// Kind selects the analysis: "check", "explore" or "ktrace".
	Kind string `json:"kind"`
	// Algorithm is a registry ID (see bbverify list or GET /v1/algorithms).
	Algorithm string `json:"algorithm"`
	// Threads and Ops bound the most general client; 0 defaults to 2.
	Threads int `json:"threads"`
	Ops     int `json:"ops"`
	// MaxStates caps exploration; 0 uses machine.DefaultMaxStates.
	MaxStates int `json:"max_states,omitempty"`
	// Workers is the exploration worker count (0 = all cores); it never
	// changes the result, only wall-clock time.
	Workers int `json:"workers,omitempty"`
	// Refiner selects the branching-bisimulation refinement algorithm:
	// "signature", "splitter" or "auto" (the default, also for ""). Like
	// Workers it tunes execution only — the two refiners produce
	// byte-identical partitions (a property the cross-refiner test suite
	// pins on every packaged instance), so it does not enter the cache key.
	Refiner string `json:"refiner,omitempty"`
	// Vals overrides the data-value universe (nil = the registry default
	// {1, 2}).
	Vals []int32 `json:"vals,omitempty"`
	// TimeoutMS bounds the job's run time in milliseconds (0 = the
	// server's default; ignored by the CLI).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MemBudgetMB bounds (in MiB) the resident state storage of each
	// exploration; past it, state storage spills to temp files (0 = all
	// in RAM). Like Workers it tunes execution only — the explorer
	// produces a byte-identical LTS under any budget — so it does not
	// enter the cache key.
	MemBudgetMB int `json:"mem_budget_mb,omitempty"`
	// ModelSource carries inline BBVL model text to verify instead of a
	// packaged algorithm; mutually exclusive with Algorithm. The source
	// enters the cache key, so two jobs differing only in model text
	// never share a cached result.
	ModelSource string `json:"model_source,omitempty"`
	// ModelName is the virtual filename used in model diagnostics
	// (default "model.bbvl"). Cosmetic only: it is excluded from the
	// cache key.
	ModelName string `json:"model_name,omitempty"`
	// Reduction enables the static independence / τ-confluence analysis
	// and the divergence-preserving partial-order reduction it licenses:
	// the exploration prioritizes provably confluent τ-statements and
	// compresses their chains, shrinking the state space without
	// changing any verdict or quotient. Only BBVL-compiled programs
	// carry the IR the analysis needs; for registry programs the flag is
	// accepted and has no effect. The reduced LTS differs from the full
	// one (state counts shrink), so the flag enters the cache key.
	Reduction bool `json:"reduction,omitempty"`
	// Checks selects which properties a "check" job verifies, any of
	// "linearizability", "lockfree" and "deadlock"; they all run against
	// one shared artifact session, so the implementation is explored and
	// quotiented once regardless of how many are listed. Empty means the
	// default pair: linearizability plus lock-freedom (lock-free
	// algorithms) or deadlock-freedom (lock-based ones). The list is
	// normalized (sorted, deduplicated) and enters the cache key.
	Checks []string `json:"checks,omitempty"`
}

// Check names accepted in JobSpec.Checks.
const (
	CheckLinearizability = "linearizability"
	CheckLockFree        = "lockfree"
	CheckDeadlock        = "deadlock"
)

// UnknownCheckError reports JobSpec.Checks entries outside the supported
// set; the service surfaces each bad name as a structured diagnostic.
type UnknownCheckError struct {
	// Names are the unrecognized entries, in spec order.
	Names []string
}

// Error implements the error interface.
func (e *UnknownCheckError) Error() string {
	return fmt.Sprintf("api: unknown check name(s) %s (want %s, %s or %s)",
		strings.Join(e.Names, ", "), CheckDeadlock, CheckLinearizability, CheckLockFree)
}

// modelFilename is the name model diagnostics are reported under.
func (s JobSpec) modelFilename() string {
	if s.ModelName != "" {
		return s.ModelName
	}
	return "model.bbvl"
}

// resolve produces the algorithm the job runs: a registry entry, or the
// compiled form of the submitted model source.
func (s JobSpec) resolve() (*algorithms.Algorithm, error) {
	if s.ModelSource != "" {
		m, err := s.resolveModel()
		if err != nil {
			return nil, err
		}
		return m.Algorithm(), nil
	}
	return algorithms.ByID(s.Algorithm)
}

// resolveModel loads and checks the job's inline model source.
func (s JobSpec) resolveModel() (*bbvl.Model, error) {
	m, err := bbvl.Load(s.modelFilename(), []byte(s.ModelSource))
	if err != nil {
		return nil, fmt.Errorf("api: invalid model: %w", err)
	}
	return m, nil
}

// DecodeJobSpec reads one JobSpec from JSON, rejecting unknown fields
// (catching misspelled options that would otherwise be silently dropped)
// and trailing garbage after the document.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	var s JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return JobSpec{}, fmt.Errorf("api: invalid job spec: %w", err)
	}
	if dec.More() {
		return JobSpec{}, errors.New("api: invalid job spec: trailing data after JSON document")
	}
	return s, nil
}

// Diagnostic is one positioned model diagnostic in wire form.
type Diagnostic struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// Diagnostics extracts structured diagnostics from an error returned by
// Validate, resolve or Run — positioned BBVL model diagnostics, or one
// entry per unknown check name — so the bbvd service can return them
// structurally rather than as one opaque string. It returns nil for
// errors that carry no diagnostics.
func Diagnostics(err error) []Diagnostic {
	var vetErr *VetError
	if errors.As(err, &vetErr) {
		out := make([]Diagnostic, 0, len(vetErr.Findings))
		for _, f := range vetErr.Findings {
			out = append(out, Diagnostic{File: f.File, Line: f.Line, Col: f.Col,
				Msg: fmt.Sprintf("%s: %s [%s]", f.Severity, f.Msg, f.Analyzer)})
		}
		return out
	}
	var badChecks *UnknownCheckError
	if errors.As(err, &badChecks) {
		out := make([]Diagnostic, 0, len(badChecks.Names))
		for _, n := range badChecks.Names {
			out = append(out, Diagnostic{File: "checks", Msg: fmt.Sprintf(
				"unknown check %q (want %s, %s or %s)", n, CheckDeadlock, CheckLinearizability, CheckLockFree)})
		}
		return out
	}
	var list bbvl.ErrorList
	if errors.As(err, &list) {
		out := make([]Diagnostic, 0, len(list))
		for _, e := range list {
			out = append(out, Diagnostic{File: e.Pos.File, Line: e.Pos.Line, Col: e.Pos.Col, Msg: e.Msg})
		}
		return out
	}
	var one *bbvl.Error
	if errors.As(err, &one) {
		return []Diagnostic{{File: one.Pos.File, Line: one.Pos.Line, Col: one.Pos.Col, Msg: one.Msg}}
	}
	return nil
}

// Normalize fills defaulted fields in place so equal requests compare
// equal: zero Threads/Ops become the conventional 2x2 instance, and the
// Checks list is sorted and deduplicated (the checks share one artifact
// session, so their order cannot influence the result).
func (s *JobSpec) Normalize() {
	if s.Threads == 0 {
		s.Threads = 2
	}
	if s.Ops == 0 {
		s.Ops = 2
	}
	if len(s.Checks) > 0 {
		sort.Strings(s.Checks)
		s.Checks = slices.Compact(s.Checks)
	}
}

// Validate rejects malformed specs before they reach a worker.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case KindCheck, KindExplore, KindKTrace:
	default:
		return fmt.Errorf("api: unknown job kind %q (want check, explore or ktrace)", s.Kind)
	}
	if s.Threads <= 0 || s.Ops <= 0 {
		return fmt.Errorf("api: threads and ops must be positive (got %d x %d)", s.Threads, s.Ops)
	}
	if s.MaxStates < 0 || s.Workers < 0 || s.TimeoutMS < 0 || s.MemBudgetMB < 0 {
		return fmt.Errorf("api: max_states, workers, timeout_ms and mem_budget_mb must be non-negative")
	}
	if _, err := bisim.ParseRefiner(s.Refiner); err != nil {
		return fmt.Errorf("api: %w", err)
	}
	if s.ModelSource != "" && s.Algorithm != "" {
		return fmt.Errorf("api: algorithm and model_source are mutually exclusive")
	}
	if len(s.Checks) > 0 && s.Kind != KindCheck {
		return fmt.Errorf("api: checks applies to kind %q only (got kind %q)", KindCheck, s.Kind)
	}
	var unknown []string
	for _, c := range s.Checks {
		switch c {
		case CheckLinearizability, CheckLockFree, CheckDeadlock:
		default:
			unknown = append(unknown, c)
		}
	}
	if len(unknown) > 0 {
		return &UnknownCheckError{Names: unknown}
	}
	if _, err := s.resolve(); err != nil {
		if s.ModelSource != "" {
			return err // already wrapped, carrying the model diagnostics
		}
		return fmt.Errorf("api: %w", err)
	}
	return nil
}

// CacheKey returns the canonical content hash of the job: a sha256 over
// every field that can influence the produced result — kind, algorithm,
// threads, ops, the effective state budget and the effective value
// universe. Workers is deliberately excluded (the explorer produces a
// byte-identical LTS for every worker count), as is TimeoutMS (a timeout
// either cancels the job or leaves the result untouched), MemBudgetMB
// (the explorer produces a byte-identical LTS under any memory budget;
// spilling moves bytes, never decisions) and Refiner
// (both refiners compute byte-identical partitions — same block
// numbering, counts and rounds — a property the cross-refiner tests pin
// on every packaged instance, so the verdict and every size field are
// refiner-independent). Defaulted
// fields are normalized first, so {MaxStates: 0} and {MaxStates:
// machine.DefaultMaxStates} — and nil Vals versus the explicit default
// {1, 2} — hash identically. For model jobs the full model source is
// hashed in (ModelName is cosmetic and excluded); jobs without a model
// hash exactly as they did before the field existed, preserving cache
// entries across the upgrade.
func (s JobSpec) CacheKey() string {
	max := s.MaxStates
	if max <= 0 {
		max = machine.DefaultMaxStates
	}
	vals := s.Vals
	if len(vals) == 0 {
		vals = algorithms.Config{}.Values()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "bbv-job-v1\x00kind=%s\x00alg=%s\x00threads=%d\x00ops=%d\x00max=%d\x00vals=",
		s.Kind, s.Algorithm, s.Threads, s.Ops, max)
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	if s.ModelSource != "" {
		b.WriteString("\x00model=")
		b.WriteString(s.ModelSource)
	}
	// An explicit check list enters the key (it changes what the result
	// contains); the empty default is not hashed, so pre-existing cache
	// entries keep their key across the upgrade. The list is normalized
	// locally in case the spec was not.
	if len(s.Checks) > 0 {
		checks := append([]string(nil), s.Checks...)
		sort.Strings(checks)
		checks = slices.Compact(checks)
		b.WriteString("\x00checks=")
		b.WriteString(strings.Join(checks, ","))
	}
	// Reduction changes the explored LTS (state counts in results), so it
	// must key separately; the false default is not hashed, keeping
	// pre-existing cache entries valid across the upgrade.
	if s.Reduction {
		b.WriteString("\x00reduction=1")
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func (s JobSpec) algorithmConfig() algorithms.Config {
	return algorithms.Config{Threads: s.Threads, Ops: s.Ops, Vals: s.Vals}
}

func (s JobSpec) coreConfig(backend statecodec.Backend) core.Config {
	ref, _ := bisim.ParseRefiner(s.Refiner) // Validate already vetted the name
	cfg := core.Config{
		Threads:   s.Threads,
		Ops:       s.Ops,
		MaxStates: s.MaxStates,
		Workers:   s.Workers,
		Refiner:   ref,
		MemBudget: int64(s.MemBudgetMB) << 20,
		// Pack states with vet's interval facts; programs without IR fall
		// back to the structural layout inside the explorer.
		LayoutProvider: LayoutProvider(s.Threads, s.Ops),
		Backend:        backend,
	}
	if s.Reduction {
		cfg.ReductionProvider = ReductionProvider(s.Threads, s.Ops)
	}
	return cfg
}

// LayoutProvider builds a core.Config.LayoutProvider that narrows each
// explored program's packed state layout with vet's interval analysis,
// for instances with the given client bounds.
func LayoutProvider(threads, ops int) func(p *machine.Program) *statecodec.Layout {
	return func(p *machine.Program) *statecodec.Layout {
		return vet.StateLayout(p, vet.Options{Threads: threads, Ops: ops})
	}
}

// ReductionProvider builds a core.Config.ReductionProvider that runs
// vet's independence / τ-confluence analysis on each explored program,
// for instances with the given client bounds. Programs without IR (the
// hand-coded registry encodings, sequential specifications) yield nil
// and are explored in full.
func ReductionProvider(threads, ops int) func(p *machine.Program) *machine.Reduction {
	return func(p *machine.Program) *machine.Reduction {
		return vet.Reduce(p, vet.Options{Threads: threads, Ops: ops}).Machine()
	}
}

// PathJSON is a diagnostic path (divergence lasso or deadlock witness) in
// wire form: one "action  [label]" step per entry, with CycleStart the
// index at which a lasso cycle begins (-1 when the path is a plain
// prefix).
type PathJSON struct {
	Steps      []string `json:"steps"`
	CycleStart int      `json:"cycle_start"`
}

// ExperimentJSON is a distinguishing experiment (bisim.Explanation) in
// wire form: the bisimulation notion, the refinement round at which the
// initial states separate, and one rendered line per experiment step.
type ExperimentJSON struct {
	Kind  string   `json:"kind"`
	Round int      `json:"round"`
	Steps []string `json:"steps"`
}

func experimentJSON(e *bisim.Explanation) *ExperimentJSON {
	if e == nil {
		return nil
	}
	return &ExperimentJSON{Kind: e.Kind.String(), Round: e.Round, Steps: e.StepStrings()}
}

func pathJSON(p *lts.Path) *PathJSON {
	if p == nil {
		return nil
	}
	out := &PathJSON{CycleStart: p.Cycle, Steps: make([]string, 0, len(p.Steps))}
	for _, st := range p.Steps {
		line := p.L.Acts.Name(st.Action)
		if lbl := p.L.LabelName(st.Label); lbl != "" {
			line += "  [" + lbl + "]"
		}
		out.Steps = append(out.Steps, line)
	}
	return out
}

// CheckResult is the "check" analysis: by default linearizability
// (Theorem 5.3) plus lock-freedom (Theorem 5.9) for lock-free algorithms
// or deadlock-freedom for the lock-based ones; an explicit
// JobSpec.Checks list selects other combinations. ChecksRun records
// which properties were actually verified — a verdict field for a check
// that was not requested keeps its zero value and must be ignored.
type CheckResult struct {
	// ChecksRun lists the checks this result covers, in execution order.
	ChecksRun []string `json:"checks_run"`

	Linearizable bool `json:"linearizable"`
	// LinCounterexample is a non-linearizable history; its last action is
	// the one the specification cannot match.
	LinCounterexample []string `json:"linearizability_counterexample,omitempty"`
	// Distinguishing is a shortest distinguishing experiment between the
	// two quotients on a negative linearizability verdict: the play that
	// shows where their branching structures part ways.
	Distinguishing     *ExperimentJSON `json:"distinguishing,omitempty"`
	ImplStates         int             `json:"impl_states"`
	SpecStates         int             `json:"spec_states"`
	ImplQuotientStates int             `json:"impl_quotient_states"`
	SpecQuotientStates int             `json:"spec_quotient_states"`
	LockBased          bool            `json:"lock_based"`
	LockFree           *bool           `json:"lock_free,omitempty"`
	LockFreeTheorem    string          `json:"lock_free_theorem,omitempty"`
	Divergence         *PathJSON       `json:"divergence,omitempty"`
	DeadlockFree       *bool           `json:"deadlock_free,omitempty"`
	DeadlockWitness    *PathJSON       `json:"deadlock_witness,omitempty"`
}

// ExploreResult is the "explore" analysis: state-space and quotient sizes.
type ExploreResult struct {
	States              int  `json:"states"`
	Transitions         int  `json:"transitions"`
	TauTransitions      int  `json:"tau_transitions"`
	QuotientStates      int  `json:"quotient_states"`
	QuotientTransitions int  `json:"quotient_transitions"`
	Divergent           bool `json:"divergent"`
	DeadlockStates      int  `json:"deadlock_states"`
}

// KTraceResult is the "ktrace" analysis: the ≡ₖ hierarchy of the
// quotient (Table I).
type KTraceResult struct {
	States         int    `json:"states"`
	QuotientStates int    `json:"quotient_states"`
	Cap            int    `json:"cap"`
	Converged      bool   `json:"converged"`
	LevelClasses   []int  `json:"level_classes"`
	Neq1Label      string `json:"neq1_label,omitempty"`
	Eq1Neq2Label   string `json:"eq1_neq2_label,omitempty"`
}

// StageJSON is one pipeline stage's instrumentation in wire form; see
// core.StageStat for the field semantics.
type StageJSON struct {
	Stage          string `json:"stage"`
	Target         string `json:"target,omitempty"`
	ElapsedUS      int64  `json:"elapsed_us"`
	StatesIn       int    `json:"states_in,omitempty"`
	TransitionsIn  int    `json:"transitions_in,omitempty"`
	StatesOut      int    `json:"states_out,omitempty"`
	TransitionsOut int    `json:"transitions_out,omitempty"`
	Rounds         int    `json:"rounds,omitempty"`
	Cached         bool   `json:"cached,omitempty"`
	// Explore-stage storage telemetry; see core.StageStat.
	Encoding      string  `json:"encoding,omitempty"`
	BytesPerState float64 `json:"bytes_per_state,omitempty"`
	PeakRSSBytes  int64   `json:"peak_rss_bytes,omitempty"`
	SpillFiles    int     `json:"spill_files,omitempty"`
	StatesPerSec  float64 `json:"states_per_sec,omitempty"`
	PrunedStates  int64   `json:"pruned_states,omitempty"`
}

// StageJSONOf converts one core stage stat to wire form.
func StageJSONOf(st core.StageStat) StageJSON {
	return StageJSON{
		Stage:          st.Stage,
		Target:         st.Target,
		ElapsedUS:      st.Elapsed.Microseconds(),
		StatesIn:       st.StatesIn,
		TransitionsIn:  st.TransitionsIn,
		StatesOut:      st.StatesOut,
		TransitionsOut: st.TransitionsOut,
		Rounds:         st.Rounds,
		Cached:         st.Cached,
		Encoding:       st.Encoding,
		BytesPerState:  st.BytesPerState,
		PeakRSSBytes:   st.PeakRSSBytes,
		SpillFiles:     st.SpillFiles,
		StatesPerSec:   st.StatesPerSec,
		PrunedStates:   st.PrunedStates,
	}
}

// StagesJSON converts core stage stats to wire form.
func StagesJSON(stats []core.StageStat) []StageJSON {
	out := make([]StageJSON, 0, len(stats))
	for _, st := range stats {
		out = append(out, StageJSONOf(st))
	}
	return out
}

// Result is the outcome of one job; exactly one of Check, Explore and
// KTrace is set, matching Spec.Kind.
type Result struct {
	Spec    JobSpec        `json:"spec"`
	Check   *CheckResult   `json:"check,omitempty"`
	Explore *ExploreResult `json:"explore,omitempty"`
	KTrace  *KTraceResult  `json:"ktrace,omitempty"`
	// Stages instruments every pipeline stage the job ran, in execution
	// order; stages served from the job's artifact session are marked
	// cached.
	Stages    []StageJSON `json:"stages,omitempty"`
	ElapsedMS int64       `json:"elapsed_ms"`
	// Warnings carries the vet pass's advisory findings for the job's
	// program (see VetSpec); absent when the pass is clean, so
	// warning-free results serialize exactly as they did before the
	// field existed.
	Warnings []VetFinding `json:"warnings,omitempty"`
}

// EncodeResult writes res to w in the canonical wire form both front
// ends use: two-space-indented JSON with a trailing newline. The CLI's
// `check -json`, the bbvd service's stored artifacts and the wasm
// playground all encode through here, so their outputs stay
// byte-diffable.
func EncodeResult(w io.Writer, res *Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// StatesExplored totals the raw state-space sizes the job generated, for
// the service's states-explored metric.
func (r *Result) StatesExplored() int64 {
	switch {
	case r.Check != nil:
		return int64(r.Check.ImplStates + r.Check.SpecStates)
	case r.Explore != nil:
		return int64(r.Explore.States)
	case r.KTrace != nil:
		return int64(r.KTrace.States)
	}
	return 0
}

// Run executes the job described by spec, polling ctx throughout: a
// canceled or timed-out context aborts exploration and refinement
// promptly with a typed cancellation error (machine.CanceledError or
// bisim.CanceledError, both unwrapping to the context cause). The spec
// is normalized and validated first.
//
// Run is pure: it uses the in-memory state store and no platform
// telemetry, so it works identically on every target (including
// js/wasm). A spec with a positive MemBudgetMB therefore fails here —
// honoring a budget needs the spill backend; use RunBackend with
// statestore.Runtime() for that.
func Run(ctx context.Context, spec JobSpec) (*Result, error) {
	return RunObserved(ctx, spec, nil)
}

// RunObserved is Run with a live stage observer: when observe is
// non-nil, it is invoked with each pipeline stage's instrumentation the
// moment the stage completes (cache-served stages included), in
// execution order — the event source behind the daemon's per-job SSE
// stream. The observer is called from the job's worker goroutine with
// the session mutex held, so it must be fast and must not block.
func RunObserved(ctx context.Context, spec JobSpec, observe func(StageJSON)) (*Result, error) {
	return RunBackend(ctx, spec, statecodec.Backend{}, observe)
}

// RunBackend is RunObserved with explicit platform wiring: backend
// supplies the exploration state-store opener and the peak-RSS probe
// (statestore.Runtime() in the CLI and the daemon; the zero value for
// pure in-memory runs). The backend tunes where bytes live and what
// telemetry the result carries — never the verdict, sizes or traces.
func RunBackend(ctx context.Context, spec JobSpec, backend statecodec.Backend, observe func(StageJSON)) (*Result, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	alg, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	// A well-typed model can still fail at runtime (nil dereference, heap
	// exhaustion); the explorer returns such faults as a positioned
	// *machine.RuntimeError at every worker count, so no guard is needed
	// here.
	return run(ctx, alg, spec, backend, observe)
}

func run(ctx context.Context, alg *algorithms.Algorithm, spec JobSpec, backend statecodec.Backend, observe func(StageJSON)) (*Result, error) {
	cfg := spec.coreConfig(backend)
	if observe != nil {
		cfg.StageObserver = func(st core.StageStat) { observe(StageJSONOf(st)) }
	}
	// One artifact session serves every stage of the job, so however many
	// checks it combines, each program is explored and quotiented once.
	sess := core.NewSession(cfg)
	res := &Result{Spec: spec}
	var err error
	switch spec.Kind {
	case KindCheck:
		res.Check, err = runCheck(ctx, sess, alg, spec)
	case KindExplore:
		res.Explore, err = runExplore(ctx, sess, alg, spec)
	case KindKTrace:
		res.KTrace, err = runKTrace(ctx, sess, alg, spec)
	}
	if err != nil {
		return nil, err
	}
	res.Stages = StagesJSON(sess.Stats())
	return res, nil
}

// effectiveChecks is the check list a spec actually runs: the explicit
// normalized list, or the legacy default pair.
func effectiveChecks(spec JobSpec, alg *algorithms.Algorithm) []string {
	if len(spec.Checks) > 0 {
		return spec.Checks
	}
	if alg.LockBased {
		return []string{CheckLinearizability, CheckDeadlock}
	}
	return []string{CheckLinearizability, CheckLockFree}
}

func runCheck(ctx context.Context, sess *core.Session, alg *algorithms.Algorithm, spec JobSpec) (*CheckResult, error) {
	acfg := spec.algorithmConfig()
	impl := alg.Build(acfg)
	checks := effectiveChecks(spec, alg)
	out := &CheckResult{ChecksRun: checks, LockBased: alg.LockBased}
	for _, c := range checks {
		switch c {
		case CheckLinearizability:
			lin, err := sess.CheckLinearizabilityContext(ctx, impl, alg.Spec(acfg))
			if err != nil {
				return nil, err
			}
			out.Linearizable = lin.Linearizable
			out.ImplStates = lin.ImplStates
			out.SpecStates = lin.SpecStates
			out.ImplQuotientStates = lin.ImplQuotientStates
			out.SpecQuotientStates = lin.SpecQuotient
			if lin.Counterexample != nil {
				out.LinCounterexample = lin.Counterexample.Trace
			}
			out.Distinguishing = experimentJSON(lin.Distinguishing)
		case CheckLockFree:
			lf, err := sess.CheckLockFreeAutoContext(ctx, impl)
			if err != nil {
				return nil, err
			}
			out.LockFree = &lf.LockFree
			out.LockFreeTheorem = lf.Theorem
			out.Divergence = pathJSON(lf.Divergence)
			out.ImplStates = lf.ImplStates
		case CheckDeadlock:
			dl, err := sess.CheckDeadlockFreeContext(ctx, impl)
			if err != nil {
				return nil, err
			}
			out.DeadlockFree = &dl.DeadlockFree
			out.DeadlockWitness = pathJSON(dl.Witness)
			out.ImplStates = dl.States
		}
	}
	return out, nil
}

func runExplore(ctx context.Context, sess *core.Session, alg *algorithms.Algorithm, spec JobSpec) (*ExploreResult, error) {
	l, info, err := sess.ExploreWithInfoContext(ctx, alg.Build(spec.algorithmConfig()))
	if err != nil {
		return nil, err
	}
	q, err := sess.QuotientContext(ctx, l)
	if err != nil {
		return nil, err
	}
	divergent := sess.TauCyclic(l)
	return &ExploreResult{
		States:              l.NumStates(),
		Transitions:         l.NumTransitions(),
		TauTransitions:      l.CountTau(),
		QuotientStates:      q.NumStates(),
		QuotientTransitions: q.NumTransitions(),
		Divergent:           divergent,
		DeadlockStates:      len(info.Deadlocks),
	}, nil
}

// ktraceMaxK bounds the hierarchy computation, matching the bbverify
// ktrace default.
const ktraceMaxK = 5

func runKTrace(ctx context.Context, sess *core.Session, alg *algorithms.Algorithm, spec JobSpec) (*KTraceResult, error) {
	l, err := sess.ExploreContext(ctx, alg.Build(spec.algorithmConfig()))
	if err != nil {
		return nil, err
	}
	q, err := sess.QuotientContext(ctx, l)
	if err != nil {
		return nil, err
	}
	ktStart := time.Now()
	an := ktrace.Analyze(q, ktraceMaxK)
	cls := ktrace.Classify(q, an)
	sess.Record(core.StageStat{
		Stage:         core.StageKTrace,
		Target:        spec.Algorithm,
		Elapsed:       time.Since(ktStart),
		StatesIn:      q.NumStates(),
		TransitionsIn: q.NumTransitions(),
	})
	out := &KTraceResult{
		States:         l.NumStates(),
		QuotientStates: q.NumStates(),
		Cap:            an.Cap,
		Converged:      an.Converged,
	}
	for _, p := range an.Partitions {
		out.LevelClasses = append(out.LevelClasses, p.Num)
	}
	if cls.Neq1 != nil {
		out.Neq1Label = q.LabelName(cls.Neq1.Label)
	}
	if cls.Eq1Neq2 != nil {
		out.Eq1Neq2Label = q.LabelName(cls.Eq1Neq2.Label)
	}
	return out, nil
}

// AlgorithmInfo describes one registry entry for GET /v1/algorithms.
type AlgorithmInfo struct {
	ID                 string `json:"id"`
	Display            string `json:"display"`
	Ref                string `json:"ref,omitempty"`
	LockBased          bool   `json:"lock_based"`
	Extension          bool   `json:"extension"`
	ExpectLinearizable bool   `json:"expect_linearizable"`
	ExpectLockFree     bool   `json:"expect_lock_free"`
}

// ListAlgorithms returns the packaged registry in paper order.
func ListAlgorithms() []AlgorithmInfo {
	all := algorithms.All()
	out := make([]AlgorithmInfo, 0, len(all))
	for _, a := range all {
		out = append(out, AlgorithmInfo{
			ID:                 a.ID,
			Display:            a.Display,
			Ref:                a.Ref,
			LockBased:          a.LockBased,
			Extension:          a.Extension,
			ExpectLinearizable: a.ExpectLinearizable,
			ExpectLockFree:     a.ExpectLockFree,
		})
	}
	return out
}
