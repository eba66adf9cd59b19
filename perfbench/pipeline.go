package main

import (
	"context"
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/bbvl"
	"repro/internal/bisim"
	"repro/internal/lts"
	"repro/internal/machine"
	"repro/internal/refine"
	"repro/internal/statecodec"
	"repro/internal/statestore"
	"repro/internal/vet"
)

// tracedJob runs one job through the same public calls an api.Run
// session makes — program construction, vet layout (and reduction),
// exploration, branching refinement and quotient per LTS, trace
// inclusion, and the liveness decision — with a span around each call.
// It returns the same outcome fields the api result carries.
func tracedJob(ctx context.Context, tr *tracer, id int, j job) (out outcome, err error) {
	root := tr.begin(-1, id, "core.job")
	defer tr.end(root)
	spec := j.spec
	cfg := algorithms.Config{Threads: spec.Threads, Ops: spec.Ops, Vals: spec.Vals}

	var impl, specProg *machine.Program
	var lockBased bool
	if spec.ModelSource != "" {
		s := tr.begin(root, id, "bbvl.load")
		m, err := bbvl.Load(spec.ModelName, []byte(spec.ModelSource))
		tr.end(s)
		if err != nil {
			return out, err
		}
		s = tr.begin(root, id, "bbvl.build")
		impl = m.Build(cfg)
		if spec.Kind == api.KindCheck {
			specProg = m.SpecProgram(cfg)
		}
		tr.end(s)
		lockBased = m.LockBased
	} else {
		alg, err := algorithms.ByID(spec.Algorithm)
		if err != nil {
			return out, err
		}
		s := tr.begin(root, id, "api.build")
		impl = alg.Build(cfg)
		if spec.Kind == api.KindCheck {
			specProg = alg.Spec(cfg)
		}
		tr.end(s)
		lockBased = alg.LockBased
	}

	// api.Run explores on the pure in-memory backend; a budgeted job
	// needs the spilling one, as in the bbvd worker.
	var backend statecodec.Backend
	if spec.MemBudgetMB > 0 {
		backend = statestore.Runtime()
	}
	acts, labels := lts.NewAlphabet(), lts.NewAlphabet()
	vopts := vet.Options{Threads: spec.Threads, Ops: spec.Ops}
	explore := func(p *machine.Program) (*lts.LTS, *machine.Info, error) {
		opt := machine.Options{Threads: spec.Threads, Ops: spec.Ops, MaxStates: spec.MaxStates,
			Workers: spec.Workers, Acts: acts, Labels: labels,
			MemBudget: int64(spec.MemBudgetMB) << 20, Backend: backend}
		s := tr.begin(root, id, "vet.layout")
		opt.Layout = vet.StateLayout(p, vopts)
		tr.end(s)
		if spec.Reduction {
			s = tr.begin(root, id, "vet.reduce")
			art := vet.Reduce(p, vopts)
			if red := art.Machine(); red != nil && !red.Empty() {
				opt.Reduction = red
			}
			tr.end(s, "confluent", art.NumConfluent())
		}
		name := "machine.explore"
		if opt.MemBudget > 0 {
			name = "statestore.explore"
		}
		s = tr.begin(root, id, name)
		l, info, err := machine.ExploreWithInfoContext(ctx, p, opt)
		if err != nil {
			tr.end(s)
			return nil, nil, fmt.Errorf("explore %s: %w", p.Name, err)
		}
		st := info.Stats
		tr.end(s, "states", st.States, "transitions", l.NumTransitions(), "encoded_bytes", st.EncodedBytes,
			"pruned", st.PrunedStates, "peak_resident", st.PeakResidentBytes, "spill_files", st.SpillFiles,
			"table_flushes", st.TableFlushes, "frontier_spills", st.FrontierSpills)
		return l, info, nil
	}
	quotient := func(l *lts.LTS) (*lts.LTS, error) {
		s := tr.extra(root, id, "lts.tau_scc")
		scc := lts.TauSCCs(l)
		tr.end(s)
		s = tr.extra(root, id, "lts.collapse")
		collapsed, _ := lts.CollapseTauSCCs(l, scc)
		tr.end(s, "collapsed", collapsed.NumStates())
		s = tr.begin(root, id, "bisim.refine")
		p, err := bisim.BranchingWithRefiner(ctx, l, bisim.RefinerAuto)
		if err != nil {
			tr.end(s)
			return nil, err
		}
		tr.end(s, "collapsed", collapsed.NumStates(), "rounds", p.Rounds, "blocks", p.Num)
		s = tr.begin(root, id, "bisim.quotient")
		q := bisim.Quotient(l, p)
		tr.end(s)
		return q, nil
	}

	il, info, err := explore(impl)
	if err != nil {
		return out, err
	}
	out.ImplStates = il.NumStates()
	if spec.Kind == api.KindExplore {
		q, err := quotient(il)
		if err != nil {
			return out, err
		}
		s := tr.begin(root, id, "lts.tau_cycle")
		lts.HasTauCycle(q)
		tr.end(s)
		out.ImplQuotient = q.NumStates()
		return out, nil
	}

	sl, _, err := explore(specProg)
	if err != nil {
		return out, err
	}
	iq, err := quotient(il)
	if err != nil {
		return out, err
	}
	sq, err := quotient(sl)
	if err != nil {
		return out, err
	}
	out.ImplQuotient, out.SpecQuotient = iq.NumStates(), sq.NumStates()
	s := tr.begin(root, id, "refine.trace_inclusion")
	inc, err := refine.TraceInclusion(iq, sq)
	if err != nil {
		tr.end(s)
		return out, err
	}
	tr.end(s, "pairs", inc.PairsExplored)
	out.Linearizable = inc.Included
	if !inc.Included {
		s = tr.begin(root, id, "bisim.explain")
		_, _, err := bisim.ExplainContext(ctx, iq, sq, bisim.KindBranching)
		tr.end(s)
		if err != nil {
			return out, err
		}
	}

	if lockBased {
		out.Live = len(info.Deadlocks) == 0
		return out, nil
	}
	s = tr.begin(root, id, "lts.tau_cycle")
	_, cyclic := lts.HasTauCycle(iq)
	tr.end(s)
	if cyclic {
		return out, fmt.Errorf("quotient of %s has a τ-cycle", impl.Name)
	}
	s = tr.begin(root, id, "bisim.equivalence")
	out.Live, err = bisim.EquivalentContext(ctx, il, iq, bisim.KindDivBranching)
	tr.end(s)
	if err != nil || out.Live {
		return out, err
	}
	s = tr.begin(root, id, "lts.divergence_path")
	_, found := lts.DivergencePath(il)
	tr.end(s)
	if !found {
		return out, fmt.Errorf("%s is not ≈div its quotient but has no τ-cycle", impl.Name)
	}
	return out, nil
}
