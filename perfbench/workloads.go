package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/bbvl"
)

// job is one generated input: the spec the program receives and the
// answer it must give.
type job struct {
	name string
	spec api.JobSpec
	want verdict
}

// table2Jobs are the 15 Table II rows at 2×2 as sequential check jobs.
func table2Jobs() []job {
	out := make([]job, 0, len(tableII))
	for _, row := range tableII {
		out = append(out, job{name: row.id, want: row.v, spec: api.JobSpec{
			Kind: api.KindCheck, Algorithm: row.id, Threads: 2, Ops: 2, Workers: 1}})
	}
	return out
}

// msQueueJobs is the single ms-queue 2×3 check at two workers.
func msQueueJobs() []job {
	return []job{{name: "ms-queue", want: msQueue23, spec: api.JobSpec{
		Kind: api.KindCheck, Algorithm: "ms-queue", Threads: 2, Ops: 3, Vals: []int32{1, 2}, Workers: 2}}}
}

// bbvlJobs are the embedded spin-lock and Treiber models at 3×2 with
// values {1}, sent as model source with reduction on.
func bbvlJobs() ([]job, error) {
	out := make([]job, 0, len(bbvlModels))
	for _, m := range bbvlModels {
		src, err := bbvlexamples.Source(m.name)
		if err != nil {
			return nil, err
		}
		out = append(out, job{name: m.name, want: m.v, spec: api.JobSpec{
			Kind: api.KindCheck, ModelSource: string(src), ModelName: bbvlexamples.Filename(m.name),
			Threads: 3, Ops: 2, Vals: []int32{1}, Reduction: true, Workers: 1}})
	}
	return out, nil
}

// budgetedJob is bbvd's ms-queue 2×3 explore under an 8 MiB state
// budget, which spills.
func budgetedJob() job {
	return job{name: "ms-queue-explore", want: msQueue23Explore, spec: api.JobSpec{
		Kind: api.KindExplore, Algorithm: "ms-queue", Threads: 2, Ops: 3, Vals: []int32{1, 2},
		Workers: 1, MemBudgetMB: 8}}
}

// permute returns a seeded shuffle of jobs.
func permute(rng *rand.Rand, jobs []job) []job {
	out := append([]job(nil), jobs...)
	rng.Shuffle(len(out), func(i, k int) { out[i], out[k] = out[k], out[i] })
	return out
}

// buildPrograms is the program construction a job needs before it can
// be submitted: its implementation and specification programs, compiled
// from source by bbvl.Load plus Build for model jobs.
func buildPrograms(jobs []job) error {
	for _, j := range jobs {
		spec := j.spec
		cfg := algorithms.Config{Threads: spec.Threads, Ops: spec.Ops, Vals: spec.Vals}
		if spec.ModelSource != "" {
			m, err := bbvl.Load(spec.ModelName, []byte(spec.ModelSource))
			if err != nil {
				return fmt.Errorf("%s: %w", j.name, err)
			}
			m.Build(cfg)
			m.SpecProgram(cfg)
			continue
		}
		alg, err := algorithms.ByID(spec.Algorithm)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		alg.Build(cfg)
		alg.Spec(cfg)
	}
	return nil
}

// apiWorkload runs its jobs one after another through api.Run: a closed
// loop with one client.
type apiWorkload struct {
	jobs []job
}

// procs is the largest number of exploration workers a job asks for.
func (w apiWorkload) procs() int {
	n := 1
	for _, j := range w.jobs {
		n = max(n, j.spec.Workers)
	}
	return n
}

// setup times the work done before the first job goes out.
func (w apiWorkload) setup() (time.Duration, error) {
	start := time.Now()
	err := buildPrograms(w.jobs)
	return time.Since(start), err
}

// pass runs every job once through api.Run in seeded order.
func (w apiWorkload) pass(ctx context.Context, r *run) {
	order := permute(r.rng, w.jobs)
	var overhead time.Duration
	stages, cached := 0, 0
	start := time.Now()
	for _, j := range order {
		t := time.Now()
		res, err := api.Run(ctx, j.spec)
		d := time.Since(t)
		r.attempted++
		if err != nil {
			r.fail(j.name, err)
			continue
		}
		r.latency = append(r.latency, d.Seconds())
		o, err := outcomeOf(res)
		if err == nil {
			err = j.want.judge(j.spec.Kind, o)
		}
		if err != nil {
			r.fail(j.name, err)
			continue
		}
		r.untraced[j.name] = o
		var staged time.Duration
		for _, st := range res.Stages {
			staged += time.Duration(st.ElapsedUS) * time.Microsecond
			if st.Cached {
				cached++
			}
		}
		stages += len(res.Stages)
		overhead += d - staged
	}
	r.wall = append(r.wall, time.Since(start).Seconds())
	r.perPass("api.run_overhead_ms", overhead.Seconds()*1e3)
	r.recordStages(stages, cached)
}

// tracedPass runs every job once through the traced pipeline and
// records the pass's per-layer figures.
func (w apiWorkload) tracedPass(ctx context.Context, r *run) {
	order := permute(r.rng, w.jobs)
	m := r.tr.mark()
	start := time.Now()
	for _, j := range order {
		r.nextJob++
		r.attempted++
		o, err := tracedJob(ctx, r.tr, r.nextJob, j)
		if err == nil {
			err = j.want.judge(j.spec.Kind, o)
		}
		if err == nil {
			err = r.agree(j.name, o)
		}
		if err != nil {
			r.fail(j.name+" (traced)", err)
		}
	}
	spans := r.tr.since(m)
	r.recordTraced(time.Since(start), spans, len(spans))
}
