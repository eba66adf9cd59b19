// Command bbverify verifies the packaged concurrent data structures with
// the branching-bisimulation techniques of the paper.
//
//	bbverify list
//	bbverify check   [-threads N] [-ops N] [-max-states N] <algorithm>
//	bbverify check   -model file.bbvl
//	bbverify check   -spec job.json
//	bbverify explore [-threads N] [-ops N] [-quotient] [-dot F] [-aut F] <algorithm>
//	bbverify ktrace  [-threads N] [-ops N] <algorithm>
//	bbverify compile <file.bbvl>
//	bbverify examples [name]
//	bbverify vet     [-json] [-Werror] [-list] <file.bbvl ...> | -alg id | -all
//
// vet runs the pre-exploration static-analysis pass (internal/vet) on
// its own: findings print one per line at file:line:col, error-severity
// findings (and, under -Werror, warnings) make the command fail. check
// runs the same pass automatically before verifying.
//
// check runs both verification methods: linearizability by quotient
// trace refinement (Theorem 5.3) and lock-freedom by divergence-sensitive
// branching bisimulation against the quotient (Theorem 5.9), printing
// counterexamples on failure. explore generates the state space, reports
// quotient sizes and optionally exports Graphviz/Aldebaran files. ktrace
// classifies the algorithm's τ steps in the ≡ₖ hierarchy (Table I).
//
// Every analysis subcommand accepts -model file.bbvl in place of a
// registry algorithm ID: the BBVL model (see internal/bbvl and
// examples/bbvl) is compiled on the fly and verified against the builtin
// specification it declares. compile prints the compiled machine-level
// form of a model without running anything.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/bbvl"
	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/ktrace"
	"repro/internal/ltl"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/statecodec"
	"repro/internal/statestore"
	"repro/internal/vet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bbverify:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "list":
		return list()
	case "check":
		return check(args[1:])
	case "explore":
		return exploreCmd(args[1:])
	case "ktrace":
		return ktraceCmd(args[1:])
	case "compare":
		return compareCmd(args[1:])
	case "explain":
		return explainCmd(args[1:])
	case "ltl":
		return ltlCmd(args[1:])
	case "sweep":
		return sweepCmd(args[1:])
	case "compile":
		return compileCmd(args[1:])
	case "examples":
		return examplesCmd(args[1:])
	case "vet":
		return vetCmd(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (try: list, check, explore, ktrace, compare, explain, ltl, sweep, compile, examples, vet)", args[0])
	}
}

func usage() {
	fmt.Println(`bbverify — concurrent object verification via branching bisimulation

subcommands:
  list                         list the packaged algorithms
  check   [flags] <algorithm>  verify linearizability (Thm 5.3) and lock-freedom (Thm 5.9);
                               -json emits the bbvd service's result schema;
                               -spec job.json runs a service job spec file instead;
                               -reduction prunes the exploration with the static
                               tau-confluence analysis (identical verdicts,
                               fewer states; BBVL models only)
  explore [flags] <algorithm>  generate the state space and its quotient
  ktrace  [flags] <algorithm>  classify tau steps in the k-trace hierarchy (Table I)
  compare [flags] <algorithm>  compare the object with its specification under
                               weak / branching / divergence-sensitive bisimilarity
                               (Table VII), explaining any inequivalence
  explain [flags] <algorithm>  print a shortest distinguishing experiment between
                               the object and its specification when they are not
                               bisimilar (-kind branching | div-branching); the
                               experiment is replay-verified on the two systems
  ltl     [flags] <algorithm>  model-check next-free LTL progress properties
                               (-formula lockfree | completes:<Method>)
  sweep   [flags] <algorithm>  sweep the operation bound (Table III / Fig. 10
                               style): sizes, quotients, reduction, verdicts
  compile <file.bbvl>          print the compiled machine-level form of a model
  examples [name]              list the embedded example models, or print one
                               (the same catalogue the wasm playground embeds;
                               try: bbverify check -model <(bbverify examples treiber))
  vet     [flags] <file.bbvl>  run the pre-exploration static-analysis pass
                               (unreachable code, dead guards, unused variables,
                               value overflow, spec shape, tau cycles) without
                               exploring anything; -alg id / -all vet registry
                               algorithms, -list prints the analyzer catalogue,
                               -Werror exits non-zero on warnings, -json emits
                               machine-readable findings, -independence prints
                               the independence / tau-confluence report that
                               licenses the -reduction pruning

common flags: -threads N (default 2), -ops N (default 2), -vals 1,2, -max-states N,
              -workers N (exploration workers; 0 = all cores, 1 = one, inline —
              results are identical for any value),
              -refiner auto|signature|splitter (branching-bisimulation refinement
              algorithm — partitions and verdicts are identical for any choice),
              -model file.bbvl (verify a BBVL model instead of a registry algorithm)`)
}

func list() error {
	fmt.Printf("%-18s %-34s %-14s %s\n", "ID", "Name", "Linearizable", "Lock-free")
	for _, a := range algorithms.All() {
		lf := fmt.Sprint(a.ExpectLockFree)
		if a.LockBased {
			lf = "n/a (lock-based)"
		}
		fmt.Printf("%-18s %-34s %-14v %s\n", a.ID, a.Display+" "+a.Ref, a.ExpectLinearizable, lf)
	}
	return nil
}

type commonFlags struct {
	fs        *flag.FlagSet
	threads   *int
	ops       *int
	vals      *string
	maxStates *int
	workers   *int
	refiner   *string
	model     *string
	membudget *string
	encoding  *string
	// modelSrc holds the -model file's source after resolve, so check
	// -json can forward it as a model_source job.
	modelSrc []byte
	// memBytes is the parsed -membudget value after resolve.
	memBytes int64
}

func newFlags(name string) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return &commonFlags{
		fs:        fs,
		threads:   fs.Int("threads", 2, "number of client threads"),
		ops:       fs.Int("ops", 2, "operations per thread"),
		vals:      fs.String("vals", "", "comma-separated value universe (default algorithm-specific)"),
		maxStates: fs.Int("max-states", 0, "state budget (0 = default)"),
		workers:   fs.Int("workers", 0, "exploration workers (0 = all cores, 1 = one worker, inline)"),
		refiner:   fs.String("refiner", "auto", "branching-bisimulation refiner: auto, signature or splitter — verdicts are identical for any choice"),
		model:     fs.String("model", "", "verify a BBVL model file instead of a registry algorithm"),
		membudget: fs.String("membudget", "", "resident state-storage budget per exploration, e.g. 64MiB or 2GiB; past it, state storage spills to temp files (default: all in RAM) — results are identical for any budget"),
		encoding:  fs.String("encoding", "", "state codec: packed (interval bit-packing, the default) or legacy (one byte per slot) — LTSs are identical for either"),
	}
}

func (c *commonFlags) parse(args []string) (*algorithms.Algorithm, algorithms.Config, core.Config, error) {
	if err := c.fs.Parse(args); err != nil {
		return nil, algorithms.Config{}, core.Config{}, err
	}
	return c.resolve()
}

// resolve interprets the already-parsed flags and positional arguments:
// either one registry algorithm ID, or -model file.bbvl compiled on the
// fly.
func (c *commonFlags) resolve() (*algorithms.Algorithm, algorithms.Config, core.Config, error) {
	var (
		alg *algorithms.Algorithm
		err error
	)
	rest := c.fs.Args()
	if *c.model != "" {
		if len(rest) != 0 {
			return nil, algorithms.Config{}, core.Config{}, fmt.Errorf("-model replaces the algorithm argument; drop %q", rest[0])
		}
		c.modelSrc, err = os.ReadFile(*c.model)
		if err != nil {
			return nil, algorithms.Config{}, core.Config{}, err
		}
		m, err := bbvl.Load(*c.model, c.modelSrc)
		if err != nil {
			return nil, algorithms.Config{}, core.Config{}, err
		}
		alg = m.Algorithm()
	} else {
		if len(rest) != 1 {
			return nil, algorithms.Config{}, core.Config{}, fmt.Errorf("expected exactly one algorithm ID (see `bbverify list`) or -model file.bbvl")
		}
		alg, err = algorithms.ByID(rest[0])
		if err != nil {
			return nil, algorithms.Config{}, core.Config{}, err
		}
	}
	vals, err := parseVals(*c.vals)
	if err != nil {
		return nil, algorithms.Config{}, core.Config{}, err
	}
	ref, err := bisim.ParseRefiner(*c.refiner)
	if err != nil {
		return nil, algorithms.Config{}, core.Config{}, fmt.Errorf("bad -refiner: %w", err)
	}
	if *c.membudget != "" {
		c.memBytes, err = statecodec.ParseBudget(*c.membudget)
		if err != nil {
			return nil, algorithms.Config{}, core.Config{}, fmt.Errorf("bad -membudget: %w", err)
		}
	}
	acfg := algorithms.Config{Threads: *c.threads, Ops: *c.ops, Vals: vals}
	ccfg := core.Config{
		Threads:   *c.threads,
		Ops:       *c.ops,
		MaxStates: *c.maxStates,
		Workers:   *c.workers,
		Refiner:   ref,
		MemBudget: c.memBytes,
		Encoding:  *c.encoding,
		// Narrow packed layouts with vet's interval facts, exactly as the
		// bbvd service does, and wire the platform backend (spill-capable
		// store, real RSS probe) the pure core deliberately lacks.
		LayoutProvider: api.LayoutProvider(*c.threads, *c.ops),
		Backend:        statestore.Runtime(),
	}
	return alg, acfg, ccfg, nil
}

// memBudgetMB converts the parsed -membudget bytes into the JobSpec's
// MiB granularity, rounding up so a budget is never silently loosened
// away (any non-zero budget stays non-zero).
func (c *commonFlags) memBudgetMB() int {
	if c.memBytes <= 0 {
		return 0
	}
	return int((c.memBytes + (1 << 20) - 1) >> 20)
}

// machineOpts builds direct machine.Explore options from a resolved
// core.Config (for the subcommands that explore outside a core.Session),
// carrying the memory budget, codec choice and vet-narrowed layout.
func machineOpts(ccfg core.Config, p *machine.Program) machine.Options {
	opt := machine.Options{
		Threads:   ccfg.Threads,
		Ops:       ccfg.Ops,
		MaxStates: ccfg.MaxStates,
		Workers:   ccfg.Workers,
		MemBudget: ccfg.MemBudget,
		Encoding:  ccfg.Encoding,
		Backend:   ccfg.Backend,
	}
	if p != nil && ccfg.LayoutProvider != nil {
		opt.Layout = ccfg.LayoutProvider(p)
	}
	return opt
}

// parseVals parses a comma-separated -vals flag.
func parseVals(s string) ([]int32, error) {
	if s == "" {
		return nil, nil
	}
	var vals []int32
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -vals: %w", err)
		}
		vals = append(vals, int32(v))
	}
	return vals, nil
}

func check(args []string) error {
	cf := newFlags("check")
	jsonOut := cf.fs.Bool("json", false, "emit the result as JSON (the same schema the bbvd service returns)")
	specFile := cf.fs.String("spec", "", "run an api.JobSpec JSON file (strict decode) and print the result JSON")
	verbose := cf.fs.Bool("v", false, "print a per-stage table (explore/quotient/equivalence...: wall time, sizes, refinement rounds, cache hits)")
	checksFlag := cf.fs.String("checks", "", "comma-separated checks to run against one shared session: linearizability,lockfree,deadlock (default: linearizability plus lockfree or deadlock)")
	reduction := cf.fs.Bool("reduction", false, "enable the static tau-confluence partial-order reduction (BBVL models only; verdicts are identical, the explored state space shrinks)")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	if *specFile != "" {
		if cf.fs.NArg() != 0 || *cf.model != "" {
			return fmt.Errorf("-spec runs a self-contained job file; drop the algorithm/-model arguments")
		}
		return runSpecFile(*specFile)
	}
	alg, acfg, ccfg, err := cf.resolve()
	if err != nil {
		return err
	}
	var checks []string
	if *checksFlag != "" {
		for _, c := range strings.Split(*checksFlag, ",") {
			checks = append(checks, strings.TrimSpace(c))
		}
	}
	spec := api.JobSpec{
		Kind:        api.KindCheck,
		Threads:     ccfg.Threads,
		Ops:         ccfg.Ops,
		MaxStates:   ccfg.MaxStates,
		Workers:     ccfg.Workers,
		Refiner:     *cf.refiner,
		Vals:        acfg.Vals,
		Checks:      checks,
		MemBudgetMB: cf.memBudgetMB(),
		Reduction:   *reduction,
	}
	if *reduction {
		ccfg.ReductionProvider = api.ReductionProvider(ccfg.Threads, ccfg.Ops)
	}
	if *cf.model != "" {
		spec.ModelSource = string(cf.modelSrc)
		spec.ModelName = *cf.model
	} else {
		spec.Algorithm = alg.ID
	}

	// The vet pass gates verification the same way the bbvd daemon does:
	// error findings abort before exploration, warnings ride along.
	warnings, err := api.VetSpec(spec)
	if err != nil {
		var ve *api.VetError
		if errors.As(err, &ve) {
			for _, f := range ve.Findings {
				fmt.Fprintln(os.Stderr, f.String())
			}
		}
		return err
	}

	if *jsonOut {
		res, err := api.RunBackend(context.Background(), spec, statestore.Runtime(), nil)
		if err != nil {
			return err
		}
		res.Warnings = warnings
		return api.EncodeResult(os.Stdout, res)
	}
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, w.String())
	}
	fmt.Printf("== %s (%d threads x %d ops) ==\n", alg.Display, ccfg.Threads, ccfg.Ops)

	// One session serves every check, so the object is explored and
	// quotiented once no matter how many properties are verified.
	sess := core.NewSession(ccfg)
	impl := alg.Build(acfg)
	if len(checks) == 0 {
		checks = []string{api.CheckLinearizability}
		if alg.LockBased {
			checks = append(checks, api.CheckDeadlock)
		} else {
			checks = append(checks, api.CheckLockFree)
		}
	}
	for _, c := range checks {
		switch c {
		case api.CheckLinearizability:
			lin, err := sess.CheckLinearizability(impl, alg.Spec(acfg))
			if err != nil {
				return err
			}
			fmt.Printf("linearizability (Thm 5.3): %s   [%d states, quotient %d, spec quotient %d, %.2fs]\n",
				verdict(lin.Linearizable), lin.ImplStates, lin.ImplQuotientStates, lin.SpecQuotient, lin.Elapsed.Seconds())
			if !lin.Linearizable {
				fmt.Println("non-linearizable history:")
				fmt.Print(indent(lin.Counterexample.Format()))
				if lin.Distinguishing != nil {
					fmt.Println("quotient distinguishing experiment:")
					fmt.Print(indent(lin.Distinguishing.Format()))
				}
			}
		case api.CheckDeadlock:
			dl, err := sess.CheckDeadlockFree(impl)
			if err != nil {
				return err
			}
			if alg.LockBased {
				fmt.Printf("lock-freedom: skipped (lock-based algorithm); deadlock-free: %s\n", verdict(dl.DeadlockFree))
			} else {
				fmt.Printf("deadlock-free: %s   [%d states, %.2fs]\n", verdict(dl.DeadlockFree), dl.States, dl.Elapsed.Seconds())
			}
			if !dl.DeadlockFree {
				fmt.Println("deadlock witness:")
				fmt.Print(indent(dl.Witness.Format()))
			}
		case api.CheckLockFree:
			lf, err := sess.CheckLockFreeAuto(impl)
			if err != nil {
				return err
			}
			fmt.Printf("lock-freedom (Thm %s): %s   [%d states, quotient %d, %.2fs]\n",
				lf.Theorem, verdict(lf.LockFree), lf.ImplStates, lf.AbstractStates, lf.Elapsed.Seconds())
			if !lf.LockFree {
				fmt.Println("divergence:")
				fmt.Print(indent(lf.Divergence.Format()))
			}
			if alg.Abstract != nil {
				ab, err := sess.CheckLockFreeAbstract(impl, alg.Abstract(acfg))
				if err != nil {
					return err
				}
				fmt.Printf("lock-freedom (Thm %s): %s   [object =div-bisim= abstract: %v, abstract %d states]\n",
					ab.Theorem, verdict(ab.LockFree), ab.Bisimilar, ab.AbstractStates)
			}
		default:
			return fmt.Errorf("unknown check %q (want %s, %s or %s)", c, api.CheckDeadlock, api.CheckLinearizability, api.CheckLockFree)
		}
	}
	if *verbose {
		printStageTable(sess.Stats())
	}
	return nil
}

// printStageTable renders the session's per-stage instrumentation.
func printStageTable(stats []core.StageStat) {
	sizes := func(st, tr int) string {
		if st == 0 && tr == 0 {
			return "-"
		}
		return fmt.Sprintf("%d/%d", st, tr)
	}
	fmt.Println("\npipeline stages:")
	fmt.Printf("  %-16s %-34s %10s %16s %16s %7s %7s\n",
		"stage", "target", "time(ms)", "in(st/tr)", "out(st/tr)", "rounds", "cached")
	for _, st := range stats {
		rounds := "-"
		if st.Rounds > 0 {
			rounds = fmt.Sprint(st.Rounds)
		}
		cached := ""
		if st.Cached {
			cached = "yes"
		}
		fmt.Printf("  %-16s %-34s %10.2f %16s %16s %7s %7s\n",
			st.Stage, st.Target, float64(st.Elapsed.Microseconds())/1e3,
			sizes(st.StatesIn, st.TransitionsIn), sizes(st.StatesOut, st.TransitionsOut),
			rounds, cached)
	}
	printStorageTable(os.Stdout, stats)
}

// printStorageTable renders the explore stages' state-storage telemetry
// (encoding, bytes per state, throughput, spilling, peak RSS), skipped
// entirely when no stage carries any. The peak-RSS column only appears
// when some stage actually measured one: a zero reading means the
// platform probe is unavailable (non-Linux, js/wasm, pure backend), and
// printing "0 B" would misreport a measurement that never happened.
func printStorageTable(w io.Writer, stats []core.StageStat) {
	any, anyRSS := false, false
	for _, st := range stats {
		if st.Encoding != "" {
			any = true
		}
		if st.PeakRSSBytes > 0 {
			anyRSS = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w, "\nstate storage:")
	fmt.Fprintf(w, "  %-34s %8s %8s %12s %6s", "target", "codec", "B/state", "states/s", "spill")
	if anyRSS {
		fmt.Fprintf(w, " %12s", "peak RSS")
	}
	fmt.Fprintln(w)
	for _, st := range stats {
		if st.Encoding == "" {
			continue
		}
		spill := "-"
		if st.SpillFiles > 0 {
			spill = fmt.Sprint(st.SpillFiles)
		}
		fmt.Fprintf(w, "  %-34s %8s %8.2f %12.0f %6s",
			st.Target, st.Encoding, st.BytesPerState, st.StatesPerSec, spill)
		if anyRSS {
			fmt.Fprintf(w, " %12s", statecodec.FormatBytes(st.PeakRSSBytes))
		}
		fmt.Fprintln(w)
	}
}

func exploreCmd(args []string) error {
	cf := newFlags("explore")
	dotFile := cf.fs.String("dot", "", "write the quotient in Graphviz format")
	autFile := cf.fs.String("aut", "", "write the full LTS in Aldebaran (.aut) format")
	alg, acfg, ccfg, err := cf.parse(args)
	if err != nil {
		return err
	}
	prog := alg.Build(acfg)
	l, info, err := machine.ExploreWithInfo(prog, machineOpts(ccfg, prog))
	if err != nil {
		return err
	}
	q, p, err := bisim.ReduceBranchingWithRefiner(context.Background(), l, ccfg.Refiner)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%d threads x %d ops)\n", alg.Display, ccfg.Threads, ccfg.Ops)
	fmt.Printf("states:       %d\n", l.NumStates())
	fmt.Printf("transitions:  %d (%d tau)\n", l.NumTransitions(), l.CountTau())
	fmt.Printf("memory:       %s codec, %.2f B/state, %.0f states/s",
		info.Stats.Encoding, info.Stats.BytesPerState(), info.Stats.StatesPerSec())
	if rss := info.Stats.PeakRSSBytes; rss > 0 {
		fmt.Printf(", peak RSS %s", statecodec.FormatBytes(rss))
	}
	if info.Stats.SpillFiles > 0 {
		fmt.Printf(", spilled to %d temp files", info.Stats.SpillFiles)
	}
	fmt.Println()
	fmt.Printf("quotient:     %d states, %d transitions (reduction %.1fx)\n",
		q.NumStates(), q.NumTransitions(), float64(l.NumStates())/float64(q.NumStates()))
	fmt.Printf("blocks:       %d\n", p.Num)
	if _, cyc := lts.HasTauCycle(l); cyc {
		fmt.Println("divergence:   the system has a tau cycle (not lock-free)")
	} else {
		fmt.Println("divergence:   none (lock-free)")
	}
	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := lts.WriteDOT(f, q, alg.ID+"-quotient"); err != nil {
			return err
		}
		fmt.Printf("wrote quotient DOT to %s\n", *dotFile)
	}
	if *autFile != "" {
		f, err := os.Create(*autFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := lts.WriteAUT(f, l); err != nil {
			return err
		}
		fmt.Printf("wrote LTS AUT to %s\n", *autFile)
	}
	return nil
}

func ktraceCmd(args []string) error {
	cf := newFlags("ktrace")
	maxK := cf.fs.Int("k", 5, "maximum hierarchy level")
	alg, acfg, ccfg, err := cf.parse(args)
	if err != nil {
		return err
	}
	prog := alg.Build(acfg)
	l, err := machine.Explore(prog, machineOpts(ccfg, prog))
	if err != nil {
		return err
	}
	q, _, err := bisim.ReduceBranchingWithRefiner(context.Background(), l, ccfg.Refiner)
	if err != nil {
		return err
	}
	an := ktrace.Analyze(q, *maxK)
	cls := ktrace.Classify(q, an)
	fmt.Printf("%s (%d threads x %d ops): %d states, quotient %d\n",
		alg.Display, ccfg.Threads, ccfg.Ops, l.NumStates(), q.NumStates())
	fmt.Printf("k-trace hierarchy cap: %d (converged: %v)\n", an.Cap, an.Converged)
	for i, p := range an.Partitions {
		fmt.Printf("  level %d: %d classes\n", i+1, p.Num)
	}
	if cls.Neq1 != nil {
		fmt.Printf("tau step with endpoints neq-1: %s\n", q.LabelName(cls.Neq1.Label))
	}
	if cls.Eq1Neq2 != nil {
		fmt.Printf("tau step with endpoints eq-1 but neq-2: %s (trace-invisible effect, cf. Fig. 6)\n",
			q.LabelName(cls.Eq1Neq2.Label))
	} else {
		fmt.Println("no (eq-1, neq-2) tau step at this instance size")
	}
	return nil
}

func compareCmd(args []string) error {
	cf := newFlags("compare")
	alg, acfg, ccfg, err := cf.parse(args)
	if err != nil {
		return err
	}
	acts := lts.NewAlphabet()
	labels := lts.NewAlphabet()
	implProg, specProg := alg.Build(acfg), alg.Spec(acfg)
	opts := machineOpts(ccfg, implProg)
	opts.Acts, opts.Labels = acts, labels
	impl, err := machine.Explore(implProg, opts)
	if err != nil {
		return err
	}
	specOpts := machineOpts(ccfg, specProg)
	specOpts.Acts, specOpts.Labels = acts, labels
	specLTS, err := machine.Explore(specProg, specOpts)
	if err != nil {
		return err
	}
	implQ, _, err := bisim.ReduceBranchingWithRefiner(context.Background(), impl, ccfg.Refiner)
	if err != nil {
		return err
	}
	specQ, _, err := bisim.ReduceBranchingWithRefiner(context.Background(), specLTS, ccfg.Refiner)
	if err != nil {
		return err
	}
	fmt.Printf("== %s vs specification (%d threads x %d ops) ==\n", alg.Display, ccfg.Threads, ccfg.Ops)
	fmt.Printf("object: %d states (quotient %d)   spec: %d states (quotient %d)\n",
		impl.NumStates(), implQ.NumStates(), specLTS.NumStates(), specQ.NumStates())
	// All notions are decided on the quotients (sound: every system is
	// branching bisimilar to its quotient and ~br refines the others);
	// only the divergence-sensitive notions must use the full systems,
	// since quotienting erases divergence.
	for _, k := range []bisim.Kind{bisim.KindWeak, bisim.KindDivWeak, bisim.KindBranching, bisim.KindDivBranching} {
		var eq bool
		if k == bisim.KindDivWeak || k == bisim.KindDivBranching {
			eq, err = bisim.Equivalent(impl, specLTS, k)
		} else {
			eq, err = bisim.Equivalent(implQ, specQ, k)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%-35s %v\n", k.String()+" bisimilar:", eq)
	}
	exp, bad, err := bisim.Explain(implQ, specQ, bisim.KindBranching)
	if err != nil {
		return fmt.Errorf("explaining the quotient difference: %w", err)
	}
	if bad {
		fmt.Println()
		fmt.Print(exp.Format())
	}
	return nil
}

// explainCmd prints a shortest distinguishing experiment between an
// object and its specification, or reports bisimilarity. The experiment
// is extracted from the splitting tree of the refinement, mapped back to
// states of the two explored systems, and replay-verified before
// printing — a failed replay is an engine bug and aborts the command.
func explainCmd(args []string) error {
	cf := newFlags("explain")
	kindFlag := cf.fs.String("kind", "branching", "bisimulation notion to explain: branching or div-branching")
	alg, acfg, ccfg, err := cf.parse(args)
	if err != nil {
		return err
	}
	var kind bisim.Kind
	switch *kindFlag {
	case "branching":
		kind = bisim.KindBranching
	case "div-branching":
		kind = bisim.KindDivBranching
	default:
		return fmt.Errorf("unknown -kind %q (want branching or div-branching)", *kindFlag)
	}
	acts := lts.NewAlphabet()
	labels := lts.NewAlphabet()
	implProg, specProg := alg.Build(acfg), alg.Spec(acfg)
	opts := machineOpts(ccfg, implProg)
	opts.Acts, opts.Labels = acts, labels
	impl, err := machine.Explore(implProg, opts)
	if err != nil {
		return err
	}
	specOpts := machineOpts(ccfg, specProg)
	specOpts.Acts, specOpts.Labels = acts, labels
	specLTS, err := machine.Explore(specProg, specOpts)
	if err != nil {
		return err
	}
	fmt.Printf("== %s vs specification (%d threads x %d ops, %s) ==\n", alg.Display, ccfg.Threads, ccfg.Ops, kind)
	fmt.Printf("object: %d states   spec: %d states\n", impl.NumStates(), specLTS.NumStates())
	exp, bad, err := bisim.Explain(impl, specLTS, kind)
	if err != nil {
		return err
	}
	if !bad {
		fmt.Printf("the systems are %s bisimilar; there is no distinguishing experiment\n", kind)
		return nil
	}
	if err := exp.Verify(impl, specLTS); err != nil {
		return fmt.Errorf("internal error: extracted experiment fails replay: %w", err)
	}
	fmt.Println()
	fmt.Print(exp.Format())
	fmt.Println("experiment verified by replay on both systems")
	return nil
}

func ltlCmd(args []string) error {
	cf := newFlags("ltl")
	formula := cf.fs.String("formula", "lockfree", "lockfree, or completes:<Method>")
	alg, acfg, ccfg, err := cf.parse(args)
	if err != nil {
		return err
	}
	var f *ltl.Formula
	switch {
	case *formula == "lockfree":
		f = ltl.LockFreedom()
	case strings.HasPrefix(*formula, "completes:"):
		f = ltl.MethodCompletes(strings.TrimPrefix(*formula, "completes:"))
	default:
		return fmt.Errorf("unknown formula %q (use lockfree or completes:<Method>)", *formula)
	}
	prog := alg.Build(acfg)
	l, err := machine.Explore(prog, machineOpts(ccfg, prog))
	if err != nil {
		return err
	}
	res, err := ltl.Check(l, f)
	if err != nil {
		return err
	}
	fmt.Printf("== %s (%d threads x %d ops) ==\n", alg.Display, ccfg.Threads, ccfg.Ops)
	fmt.Printf("formula: %s\n", f)
	fmt.Printf("holds on all maximal executions: %v   [%d states, product %d]\n",
		res.Holds, l.NumStates(), res.ProductStates)
	if !res.Holds {
		fmt.Println("counterexample lasso:")
		for _, a := range res.Prefix {
			fmt.Printf("  %q\n", a)
		}
		fmt.Println("  -- cycle repeats forever --")
		for _, a := range res.Cycle {
			fmt.Printf("  %q\n", a)
		}
	}
	return nil
}

func sweepCmd(args []string) error {
	cf := newFlags("sweep")
	opsMax := cf.fs.Int("ops-max", 5, "largest operations-per-thread bound")
	alg, acfg, ccfg, err := cf.parse(args)
	if err != nil {
		return err
	}
	fmt.Printf("== %s sweep: %d threads, 1..%d ops ==\n", alg.Display, ccfg.Threads, *opsMax)
	fmt.Printf("%-5s %-10s %-10s %-10s %-10s %s\n", "#Op", "states", "quotient", "reduction", "lock-free", "time(s)")
	for ops := 1; ops <= *opsMax; ops++ {
		a := acfg
		a.Ops = ops
		start := time.Now()
		prog := alg.Build(a)
		sweepCfg := ccfg
		sweepCfg.Ops = ops
		// The layout must match this iteration's ops bound, not the base
		// flag value.
		sweepCfg.LayoutProvider = api.LayoutProvider(ccfg.Threads, ops)
		l, err := machine.Explore(prog, machineOpts(sweepCfg, prog))
		if err != nil {
			var lim *machine.StateLimitError
			if errors.As(err, &lim) {
				fmt.Printf("%-5d (exceeds the state budget of %d)\n", ops, lim.Limit)
				return nil
			}
			return err
		}
		q, _, err := bisim.ReduceBranchingWithRefiner(context.Background(), l, ccfg.Refiner)
		if err != nil {
			return err
		}
		lf := "-"
		if !alg.LockBased {
			if _, cyc := lts.HasTauCycle(l); cyc {
				lf = "No"
			} else {
				lf = "Yes"
			}
		}
		fmt.Printf("%-5d %-10d %-10d %-10.1f %-10s %.2f\n",
			ops, l.NumStates(), q.NumStates(),
			float64(l.NumStates())/float64(q.NumStates()), lf, time.Since(start).Seconds())
	}
	return nil
}

// runSpecFile executes one service job spec from disk — the same strict
// decoding and runner the bbvd daemon uses, so a job file debugs
// identically offline.
func runSpecFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spec, err := api.DecodeJobSpec(f)
	if err != nil {
		return err
	}
	warnings, err := api.VetSpec(spec)
	if err != nil {
		var ve *api.VetError
		if errors.As(err, &ve) {
			for _, f := range ve.Findings {
				fmt.Fprintln(os.Stderr, f.String())
			}
		}
		return err
	}
	res, err := api.RunBackend(context.Background(), spec, statestore.Runtime(), nil)
	if err != nil {
		return err
	}
	res.Warnings = warnings
	return api.EncodeResult(os.Stdout, res)
}

// compileCmd loads a BBVL model and prints its compiled machine-level
// form: the schema, the node-field layout, the local register slots and
// every resolved method body.
func compileCmd(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one model file (bbverify compile file.bbvl)")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	m, err := bbvl.Load(fs.Arg(0), src)
	if err != nil {
		return err
	}
	fmt.Print(m.Dump())
	return nil
}

// examplesCmd lists or prints the embedded example models. The bytes
// come from the same go:embed catalogue the wasm playground ships
// (repro/examples/bbvl), which a test pins byte-identical to the files
// under examples/bbvl.
func examplesCmd(args []string) error {
	fs := flag.NewFlagSet("examples", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch fs.NArg() {
	case 0:
		for _, name := range bbvlexamples.Names() {
			src, err := bbvlexamples.Source(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-20s %4d lines\n", name, strings.Count(string(src), "\n"))
		}
		return nil
	case 1:
		src, err := bbvlexamples.Source(fs.Arg(0))
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(src)
		return err
	default:
		return fmt.Errorf("expected at most one model name (bbverify examples [name])")
	}
}

// vetCmd runs the pre-exploration static-analysis pass on its own:
// over BBVL model files (positional arguments) or registry algorithms
// (-alg id, -all), without exploring any state space. Findings print
// one per line in file:line:col form; the command fails when any
// finding has error severity, or on any finding at all under -Werror.
func vetCmd(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	werror := fs.Bool("Werror", false, "treat warnings as errors (non-zero exit on any finding)")
	listOnly := fs.Bool("list", false, "print the analyzer catalogue and exit")
	threads := fs.Int("threads", 2, "number of client threads the analysis assumes")
	ops := fs.Int("ops", 2, "operations per thread the analysis assumes")
	valsFlag := fs.String("vals", "", "comma-separated value universe (default algorithm-specific)")
	algID := fs.String("alg", "", "vet a registry algorithm instead of model files")
	all := fs.Bool("all", false, "vet every registry algorithm")
	indep := fs.Bool("independence", false, "print the independence / tau-confluence analysis report instead of findings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listOnly {
		infos := api.ListAnalyzers()
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(infos)
		}
		for _, in := range infos {
			fmt.Printf("%-12s %-8s %s\n", in.ID, in.Severity, in.Description)
		}
		return nil
	}
	vals, err := parseVals(*valsFlag)
	if err != nil {
		return err
	}

	var specs []api.JobSpec
	base := api.JobSpec{Kind: api.KindCheck, Threads: *threads, Ops: *ops, Vals: vals}
	switch {
	case *all:
		if *algID != "" || fs.NArg() != 0 {
			return fmt.Errorf("-all vets the whole registry; drop the other targets")
		}
		for _, a := range algorithms.All() {
			s := base
			s.Algorithm = a.ID
			specs = append(specs, s)
		}
	case *algID != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("-alg replaces the model file arguments; drop %q", fs.Arg(0))
		}
		s := base
		s.Algorithm = *algID
		specs = append(specs, s)
	default:
		if fs.NArg() == 0 {
			return fmt.Errorf("expected model files to vet (bbverify vet file.bbvl...), -alg id, or -all")
		}
		for _, path := range fs.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			s := base
			s.ModelSource = string(src)
			s.ModelName = path
			specs = append(specs, s)
		}
	}

	if *indep {
		return vetIndependence(specs, *jsonOut)
	}

	var findings []api.VetFinding
	hasErrors := false
	for _, spec := range specs {
		fs, err := api.VetSpec(spec)
		if err != nil {
			var ve *api.VetError
			if !errors.As(err, &ve) {
				return err // the program does not even load: parse/type error
			}
			hasErrors = true
		}
		findings = append(findings, fs...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return err
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	switch {
	case hasErrors:
		return fmt.Errorf("vet failed")
	case *werror && len(findings) > 0:
		return fmt.Errorf("vet found warnings (-Werror)")
	}
	return nil
}

// vetIndependence prints the independence / τ-confluence report for
// each target: the statement footprints, the verified spin locks, and
// the confluent (reduction-licensed) statement set. Programs without IR
// (hand-coded registry encodings) report that nothing is licensed.
func vetIndependence(specs []api.JobSpec, jsonOut bool) error {
	type entry struct {
		Target   string                 `json:"target"`
		Artifact *vet.ReductionArtifact `json:"artifact"` // nil: no IR, nothing licensed
	}
	var entries []entry
	for _, spec := range specs {
		target := spec.Algorithm
		if target == "" {
			target = spec.ModelName
		}
		art, err := api.IndependenceReport(spec)
		if err != nil {
			return err
		}
		entries = append(entries, entry{Target: target, Artifact: art})
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(entries)
	}
	for i, e := range entries {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", e.Target)
		if e.Artifact == nil {
			fmt.Println("no IR (hand-coded program); no reduction licensed")
			continue
		}
		fmt.Print(e.Artifact.Format())
	}
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "OK"
	}
	return "VIOLATED"
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}
