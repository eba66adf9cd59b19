package machine

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/lts"
	"repro/internal/statecodec"
)

// DefaultMaxStates bounds exploration when Options.MaxStates is zero.
const DefaultMaxStates = 2_000_000

// StateLimitError reports that exploration exceeded its state budget.
type StateLimitError struct {
	Program string
	Limit   int
}

// Error implements the error interface.
func (e *StateLimitError) Error() string {
	return fmt.Sprintf("machine: %s: state space exceeds limit of %d states", e.Program, e.Limit)
}

// CanceledError reports that an exploration was abandoned because its
// context was canceled or its deadline expired. It unwraps to the
// context's cause (context.Canceled or context.DeadlineExceeded), so
// errors.Is(err, context.Canceled) works as expected.
type CanceledError struct {
	Program string
	Cause   error
}

// Error implements the error interface.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("machine: %s: exploration canceled: %v", e.Program, e.Cause)
}

// Unwrap exposes the context cause.
func (e *CanceledError) Unwrap() error { return e.Cause }

// canceled builds the typed cancellation error for a context known to be
// done, preferring the cancel cause when one was recorded.
func canceled(ctx context.Context, prog string) error {
	return &CanceledError{Program: prog, Cause: context.Cause(ctx)}
}

// cancelCheckMask throttles context polling in exploration hot loops: the
// context is consulted once every cancelCheckMask+1 states.
const cancelCheckMask = 1023

// exploreObserver, when set, is called at the start of every exploration
// (at any worker count) with the program being explored. It exists so
// tests can prove how often the expensive generation stage actually runs
// — e.g. that a core.Session explores each distinct program exactly once.
var exploreObserver atomic.Pointer[func(p *Program)]

// SetExploreObserver installs fn as the exploration observer and returns
// a function restoring the previous one. Intended for tests only; fn must
// be safe for concurrent calls.
func SetExploreObserver(fn func(p *Program)) (restore func()) {
	var prev *func(p *Program)
	if fn == nil {
		prev = exploreObserver.Swap(nil)
	} else {
		prev = exploreObserver.Swap(&fn)
	}
	return func() { exploreObserver.Store(prev) }
}

// Options configures state-space generation.
type Options struct {
	// Threads is the number of most-general-client threads (k in the
	// paper's #Th column).
	Threads int
	// Ops is the number of operations each thread may perform (#Op).
	Ops int
	// MaxStates bounds the exploration; 0 means DefaultMaxStates.
	MaxStates int
	// Workers is the number of exploration workers: 0 uses
	// runtime.GOMAXPROCS(0). There is one explorer, a level-synchronized
	// BFS over a state store; with 1 worker it expands every level inline
	// on the calling goroutine, with more it fans each level out to that
	// many goroutines. Every worker count produces the same LTS, bit for
	// bit (state IDs in breadth-first discovery order, transitions in
	// emission order, identical alphabet interning), the same deadlock
	// list and the same error, so results, quotients and verdicts never
	// depend on it.
	Workers int
	// Acts supplies a shared action alphabet so that several systems
	// (object, specification, abstraction) can be compared; nil allocates
	// a fresh one.
	Acts *lts.Alphabet
	// Labels supplies a shared diagnostic-label alphabet; nil allocates.
	Labels *lts.Alphabet
	// MemBudget bounds (approximately, in bytes) the resident state
	// storage of the exploration; past it, a spill-capable Backend sheds
	// closed intern-table generations and frontier levels to temp files.
	// 0 keeps everything in RAM. The produced LTS is byte-identical for
	// every budget. A positive budget requires Backend.Open — the pure
	// in-memory default cannot honor a budget.
	MemBudget int64
	// SpillDir is the parent directory for spill temp files; empty uses
	// the OS temp dir. All spill files live in a private subdirectory
	// removed when the exploration ends, on every exit path. Ignored by
	// the in-memory backend.
	SpillDir string
	// Encoding selects the state codec: EncodingAuto/EncodingPacked bit-
	// pack states using Layout or the structural layout; EncodingLegacy
	// forces the original one-byte-per-slot encoding. The choice never
	// affects the produced LTS.
	Encoding string
	// Layout optionally supplies a narrowed packed layout (vet interval
	// facts via vet.StateLayout). It must be derived from this program
	// under the same Threads and Ops; a mis-shaped layout is ignored in
	// favor of the structural one.
	Layout *statecodec.Layout
	// Reduction optionally supplies the τ-confluence partial-order
	// reduction artifact (vet's independence/confluence analysis via
	// vet.Reduce). When a state has a running thread at a statement the
	// artifact licenses, expansion follows the prioritized confluent
	// τ-chain and emits one compressed τ-transition to its end (interior
	// states are never interned; Info.Stats.PrunedStates counts the
	// compressed steps). The reduced LTS is smaller but divergence-sensitive
	// branching bisimilar to the full one, so every verdict and quotient
	// block count is unchanged; the pruning rule is a pure function of
	// state and artifact, so the reduced LTS stays byte-identical for
	// every worker count and memory budget. A mis-shaped artifact is
	// ignored. Nil disables reduction.
	Reduction *Reduction
	// Backend supplies the platform services of the exploration: the
	// state-store opener and the process peak-RSS probe. The zero value
	// is fully functional and OS-free — states stay in RAM (the
	// statecodec in-memory store) and RSS telemetry reads as unknown.
	// Platform callers pass statestore.Runtime() to enable
	// spill-to-disk storage and real telemetry. The choice never affects
	// the produced LTS.
	Backend statecodec.Backend
}

// ExploreStats is the storage telemetry of one exploration.
type ExploreStats struct {
	// Encoding names the state codec used: "packed" or "legacy".
	Encoding string
	// States is the number of distinct states interned.
	States int
	// EncodedBytes is the summed encoded size of all interned states.
	EncodedBytes int64
	// PeakResidentBytes is the high-water mark of state storage held in
	// RAM (interned keys, table bookkeeping, hot frontier bytes).
	PeakResidentBytes int64
	// PeakRSSBytes is the OS-reported process peak RSS, measured at the
	// end of the exploration (process-wide and monotone across a run);
	// 0 when the exploration ran without a platform telemetry probe
	// (no Options.Backend.PeakRSS, non-Linux hosts, js/wasm). Consumers
	// must omit, not report, zero values.
	PeakRSSBytes int64
	// SpillFiles, TableFlushes and FrontierSpills count spill activity;
	// all zero when the exploration fit in its budget.
	SpillFiles     int
	TableFlushes   int
	FrontierSpills int
	// PrunedStates counts the explored states whose expansion was pruned
	// to a single prioritized confluent τ-successor by Options.Reduction;
	// 0 when no reduction artifact was installed (or it never applied).
	PrunedStates int64
	// Elapsed is the exploration wall-clock time.
	Elapsed time.Duration
}

// BytesPerState is the effective encoded size of one state.
func (s ExploreStats) BytesPerState() float64 {
	if s.States == 0 {
		return 0
	}
	return float64(s.EncodedBytes) / float64(s.States)
}

// StatesPerSec is the exploration throughput.
func (s ExploreStats) StatesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.States) / s.Elapsed.Seconds()
}

// Info carries by-products of an exploration.
type Info struct {
	// Deadlocks lists the reachable states that have no outgoing
	// transition although some thread still has work (a pending method or
	// remaining operations). A lock-based object that can block all
	// clients forever shows up here; the all-operations-completed
	// terminal states do not.
	Deadlocks []int32
	// Stats is the exploration's storage telemetry.
	Stats ExploreStats
}

// Explore generates the LTS of the program under most general clients:
// every reachable interleaving of Threads clients each performing up to
// Ops method invocations, with every method and argument choice.
//
// Call and return actions are visible; every statement execution is a τ
// transition labeled (for diagnostics) with "t<i>.<stmt label>".
func Explore(p *Program, opt Options) (*lts.LTS, error) {
	l, _, err := ExploreWithInfoContext(context.Background(), p, opt)
	return l, err
}

// ExploreContext is Explore with cancellation: when ctx is canceled or
// times out mid-exploration, it stops promptly — every worker polls the
// context once per claimed frontier chunk, and the merge every 1024
// states — and returns a *CanceledError wrapping the context cause.
//
// A panic raised by program code (a statement, Init, or a successor
// outside the state encoding) does not escape: it is returned as a
// *RuntimeError naming the faulting state and statement, the same one
// at every worker count.
func ExploreContext(ctx context.Context, p *Program, opt Options) (*lts.LTS, error) {
	l, _, err := ExploreWithInfoContext(ctx, p, opt)
	return l, err
}

// ExploreWithInfo is Explore plus deadlock information.
func ExploreWithInfo(p *Program, opt Options) (*lts.LTS, *Info, error) {
	return ExploreWithInfoContext(context.Background(), p, opt)
}

// ExploreWithInfoContext is ExploreContext plus deadlock information.
func ExploreWithInfoContext(ctx context.Context, p *Program, opt Options) (*lts.LTS, *Info, error) {
	if err := validateOptions(p, opt); err != nil {
		return nil, nil, err
	}
	if obs := exploreObserver.Load(); obs != nil {
		(*obs)(p)
	}
	limit := opt.MaxStates
	if limit <= 0 {
		limit = DefaultMaxStates
	}
	acts := opt.Acts
	if acts == nil {
		acts = lts.NewAlphabet()
	}
	labels := opt.Labels
	if labels == nil {
		labels = lts.NewAlphabet()
	}
	cdc, err := newCodec(p, opt)
	if err != nil {
		return nil, nil, err
	}
	if opt.Reduction != nil && !opt.Reduction.Matches(p) {
		opt.Reduction = nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opt.MemBudget > 0 && opt.Backend.Open == nil {
		return nil, nil, fmt.Errorf("machine: %s: Options.MemBudget requires a spill-capable Options.Backend (e.g. statestore.Runtime()); the in-memory default cannot honor a budget", p.Name)
	}
	return explore(ctx, p, opt, cdc, acts, labels, limit, workers)
}

// validation helpers live on the option struct so both entry points share
// them.
func validateOptions(p *Program, opt Options) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if opt.Threads <= 0 || opt.Ops <= 0 {
		return fmt.Errorf("machine: %s: Threads and Ops must be positive", p.Name)
	}
	return nil
}

// bytesString views b as a string without copying. The caller must never
// mutate b afterwards; the pilot's state keys are write-once.
func bytesString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// initialState builds the start state of the most general client.
func initialState(p *Program, opt Options) *state {
	init := newScratchState(p, opt.Threads)
	if p.Init != nil {
		p.Init(init.g)
	}
	for i := range init.th {
		init.th[i].ops = int32(opt.Ops)
	}
	return init
}

// actKey packs (call?, thread, method, value) for the action cache.
func actKey(call bool, t, m int, v int32) int64 {
	k := int64(t)<<40 | int64(m)<<32 | int64(uint32(v))
	if call {
		k |= 1 << 62
	}
	return k
}

// actionInterner resolves the symbolic transitions produced by expandState
// to interned action and label IDs, memoized per (thread, method, value).
// The merge resolves transitions in deterministic emission order, so
// the alphabets receive identical IDs at every worker count.
type actionInterner struct {
	prog     *Program
	acts     *lts.Alphabet
	labels   *lts.Alphabet
	actCache map[int64]lts.ActionID
	lblCache map[int64]lts.LabelID
}

func newActionInterner(p *Program, acts, labels *lts.Alphabet) *actionInterner {
	return &actionInterner{
		prog:     p,
		acts:     acts,
		labels:   labels,
		actCache: make(map[int64]lts.ActionID),
		lblCache: make(map[int64]lts.LabelID),
	}
}

func (ai *actionInterner) callAction(t, m int, arg int32) lts.ActionID {
	k := actKey(true, t, m, arg)
	if id, ok := ai.actCache[k]; ok {
		return id
	}
	meth := &ai.prog.Methods[m]
	var name string
	if meth.Args == nil {
		name = fmt.Sprintf("t%d.call.%s", t+1, meth.Name)
	} else {
		format := ai.prog.FormatArg
		argStr := ""
		if format != nil {
			argStr = format(meth, arg)
		} else {
			argStr = FormatValue(arg)
		}
		name = fmt.Sprintf("t%d.call.%s(%s)", t+1, meth.Name, argStr)
	}
	id := ai.acts.ID(name)
	ai.actCache[k] = id
	return id
}

func (ai *actionInterner) retAction(t, m int, ret int32) lts.ActionID {
	k := actKey(false, t, m, ret)
	if id, ok := ai.actCache[k]; ok {
		return id
	}
	meth := &ai.prog.Methods[m]
	format := ai.prog.FormatRet
	var retStr string
	if format != nil {
		retStr = format(meth, ret)
	} else {
		retStr = FormatValue(ret)
	}
	name := fmt.Sprintf("t%d.ret.%s(%s)", t+1, meth.Name, retStr)
	id := ai.acts.ID(name)
	ai.actCache[k] = id
	return id
}

func (ai *actionInterner) stmtLabel(t, m, pc int) lts.LabelID {
	k := int64(t)<<40 | int64(m)<<16 | int64(pc)
	if id, ok := ai.lblCache[k]; ok {
		return id
	}
	stmt := &ai.prog.Methods[m].Body[pc]
	lbl := stmt.Label
	if lbl == "" {
		lbl = fmt.Sprintf("%s.%d", ai.prog.Methods[m].Name, pc)
	}
	id := lts.LabelID(ai.labels.ID(fmt.Sprintf("t%d.%s", t+1, lbl)))
	ai.lblCache[k] = id
	return id
}

// resolve maps a symbolic transition to its action and label IDs.
func (ai *actionInterner) resolve(tr symTrans) (lts.ActionID, lts.LabelID) {
	switch tr.kind {
	case symCall:
		return ai.callAction(int(tr.t), int(tr.m), tr.val), lts.NoLabel
	case symTau:
		return lts.Tau, ai.stmtLabel(int(tr.t), int(tr.m), int(tr.pc))
	default:
		return ai.retAction(int(tr.t), int(tr.m), tr.val), lts.NoLabel
	}
}

// newScratchState allocates a state shaped for the program.
func newScratchState(p *Program, threads int) *state {
	st := &state{
		g:  &Global{Vars: make([]int32, len(p.Globals.Names)), Heap: make([]Node, p.HeapCap+1)},
		th: make([]thread, threads),
	}
	for i := range st.th {
		st.th[i].locals = make([]int32, p.NLocals)
	}
	return st
}

// allDone reports whether every thread is idle with no operations left —
// the legitimate terminal states of a bounded most-general client.
func allDone(st *state) bool {
	for i := range st.th {
		if st.th[i].status != statusIdle || st.th[i].ops != 0 {
			return false
		}
	}
	return true
}

// Kinds of symbolic transitions produced by expandState.
const (
	symCall int8 = iota
	symTau
	symRet
)

// symTrans is one transition in symbolic form: the action is identified
// by (kind, t, m, val) and the τ diagnostic label by (t, m, pc). The
// successor state sits in the expander's succ scratch when the sink runs.
type symTrans struct {
	kind int8
	t, m int32
	val  int32 // call argument or return value
	pc   int32 // statement index, for symTau labels
}

// transSink consumes the transitions produced by expandState. emit may
// return false to abort the expansion of the current state early.
type transSink interface {
	emit(x *expander, tr symTrans) bool
}

// expander bundles the per-worker scratch needed to enumerate the
// successors of one state: the statement's mutated copy of the current
// state (work), the per-outcome successor handed to the canonicalizer
// (succ, rewritten in place), the statement context, and a private
// canonicalizer. Every exploration worker (and the pilot) owns its own,
// so expansion never shares mutable state.
type expander struct {
	prog       *Program
	work, succ *state
	ctx        Ctx
	canon      *canonicalizer
	// red, when non-nil, licenses confluent-τ pruning in expandState;
	// pruned counts the prioritized expansions it replaced (one per
	// compressed chain step). chain is the private scratch the
	// chain-follower mutates; chainMax defensively bounds a chain
	// (acyclicity makes the bound unreachable for sound artifacts).
	red      *Reduction
	pruned   int64
	chain    *state
	chainMax int
	// inStmt is set while a statement executes, naming it (thread
	// stmtT, method stmtM, statement stmtPC) for the RuntimeError a
	// fault inside it becomes.
	inStmt               bool
	stmtT, stmtM, stmtPC int32
}

// exec runs statement pc of method mi for thread t under ctx, recording
// which statement runs for fault reports.
func (x *expander) exec(stmt *Stmt, t, mi, pc int) {
	x.inStmt, x.stmtT, x.stmtM, x.stmtPC = true, int32(t), int32(mi), int32(pc)
	stmt.Exec(&x.ctx)
	x.inStmt = false
}

func newExpander(p *Program, threads int) expander {
	total := 0
	for mi := range p.Methods {
		total += len(p.Methods[mi].Body)
	}
	return expander{
		prog:     p,
		work:     newScratchState(p, threads),
		succ:     newScratchState(p, threads),
		canon:    newCanonicalizer(p, p.HeapCap+1),
		chain:    newScratchState(p, threads),
		chainMax: threads*total + 1,
	}
}

// zeroArg is the argument list of no-argument methods.
var zeroArg = []int32{0}

// expandState enumerates all transitions of cur in the deterministic
// order the LTS stores them — threads ascending; within a thread, methods
// and arguments in declaration order and statement outcomes in emission
// order — leaving each successor in x.succ for the sink. It returns the
// number of transitions handed to the sink (a partial count if the sink
// aborted).
//
// With a Reduction installed, a state with a running thread at a
// licensed confluent statement expands to a single compressed
// τ-transition: the prioritized chain — always the lowest licensed
// thread's single τ-successor, repeated while the successor is itself
// prioritized — is followed privately and only its final state is
// emitted. Every skipped state is divergence-sensitive branching
// bisimilar to the chain's end (each hop is an inert confluent τ), so
// the quotient is untouched while the skipped states never enter the
// LTS at all. The chain is a pure function of the canonical state and
// the artifact — a deterministic choice shared by every worker, keeping
// the reduced LTS byte-identical across worker counts and memory
// budgets.
func (x *expander) expandState(cur *state, sink transSink) int {
	if x.red != nil {
		if t := x.red.pick(cur); t >= 0 {
			if n, ok := x.expandChain(cur, t, sink); ok {
				return n
			}
		}
	}
	emitted := 0
	for t := range cur.th {
		n, ok := x.expandThread(cur, t, sink)
		emitted += n
		if !ok {
			break
		}
	}
	return emitted
}

// expandChain follows the prioritized confluent τ-chain from cur, whose
// thread t is licensed, and emits one τ-transition to the first state
// that is not itself prioritized. The transition carries the first
// step's diagnostic label; the action is τ either way. Returns ok=false
// without emitting anything when the first licensed statement does not
// produce exactly one outcome — the artifact mis-licensed it and the
// caller must fall back to full expansion.
func (x *expander) expandChain(cur *state, t int, sink transSink) (int, bool) {
	p := x.prog
	cur.copyInto(x.chain)
	var first symTrans
	for steps := 0; ; {
		th := &x.chain.th[t]
		mi, pc := int(th.method), int(th.pc)
		stmt := &p.Methods[mi].Body[pc]
		x.ctx = Ctx{
			T:    t,
			Arg:  th.arg,
			G:    x.chain.g,
			L:    th.locals,
			outs: x.ctx.outs[:0],
		}
		x.exec(stmt, t, mi, pc)
		if len(x.ctx.outs) != 1 {
			if steps == 0 {
				return 0, false
			}
			// Interior statements are licensed too, so this cannot
			// happen with a sound artifact; stop the chain before the
			// offending statement (x.chain is canonical here).
			break
		}
		if steps == 0 {
			first = symTrans{kind: symTau, t: int32(t), m: int32(mi), pc: int32(pc)}
		}
		out := x.ctx.outs[0]
		if out.pc < 0 {
			th.status = statusReturning
			th.ret = out.ret
			th.pc = 0
			th.arg = 0
			for i := range th.locals {
				th.locals[i] = 0
			}
		} else {
			if int(out.pc) >= len(p.Methods[mi].Body) {
				panic(fmt.Sprintf("machine: %s.%s: goto %d beyond body", p.Name, p.Methods[mi].Name, out.pc))
			}
			th.pc = out.pc
		}
		x.canon.run(x.chain)
		steps++
		x.pruned++
		if steps >= x.chainMax {
			break
		}
		if t = x.red.pick(x.chain); t < 0 {
			break
		}
	}
	x.chain.copyInto(x.succ)
	sink.emit(x, first)
	return 1, true
}

// expandThread enumerates the transitions of thread t from state cur,
// returning how many it produced and whether the sink wants more.
func (x *expander) expandThread(cur *state, t int, sink transSink) (int, bool) {
	p := x.prog
	emitted := 0
	th := &cur.th[t]
	switch th.status {
	case statusIdle:
		if th.ops == 0 {
			return 0, true
		}
		for mi := range p.Methods {
			args := p.Methods[mi].Args
			if args == nil {
				args = zeroArg
			}
			for _, arg := range args {
				cur.copyInto(x.succ)
				nt := &x.succ.th[t]
				nt.status = statusRunning
				nt.method = int32(mi)
				nt.arg = arg
				nt.pc = 0
				nt.ops--
				for i := range nt.locals {
					nt.locals[i] = 0
				}
				emitted++
				if !sink.emit(x, symTrans{kind: symCall, t: int32(t), m: int32(mi), val: arg}) {
					return emitted, false
				}
			}
		}
	case statusRunning:
		mi := int(th.method)
		pc := int(th.pc)
		stmt := &p.Methods[mi].Body[pc]
		// The statement runs on the reusable work copy; its (shared)
		// mutations are visible to every outcome, per the Stmt contract.
		cur.copyInto(x.work)
		x.ctx = Ctx{
			T:    t,
			Arg:  th.arg,
			G:    x.work.g,
			L:    x.work.th[t].locals,
			outs: x.ctx.outs[:0],
		}
		x.exec(stmt, t, mi, pc)
		for _, out := range x.ctx.outs {
			x.work.copyInto(x.succ)
			nt := &x.succ.th[t]
			if out.pc < 0 {
				nt.status = statusReturning
				nt.ret = out.ret
				nt.pc = 0
				nt.arg = 0
				for i := range nt.locals {
					nt.locals[i] = 0
				}
			} else {
				if int(out.pc) >= len(p.Methods[mi].Body) {
					panic(fmt.Sprintf("machine: %s.%s: goto %d beyond body", p.Name, p.Methods[mi].Name, out.pc))
				}
				nt.pc = out.pc
			}
			emitted++
			if !sink.emit(x, symTrans{kind: symTau, t: int32(t), m: int32(mi), pc: int32(pc)}) {
				return emitted, false
			}
		}
	case statusReturning:
		cur.copyInto(x.succ)
		nt := &x.succ.th[t]
		mi := int(th.method)
		ret := th.ret
		nt.status = statusIdle
		nt.method = 0
		nt.ret = 0
		emitted++
		if !sink.emit(x, symTrans{kind: symRet, t: int32(t), m: int32(mi), val: ret}) {
			return emitted, false
		}
	}
	return emitted, true
}
