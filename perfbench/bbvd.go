package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/serve"
)

// warmRounds is how often the warm pass resubmits every spec: 7 × 16
// hits leave more than ten samples beyond hit_p90_ms.
const warmRounds = 7

// serveWorkers is how many jobs the server runs at once.
const serveWorkers = 2

// requestTimeout bounds one POST or event stream.
const requestTimeout = 120 * time.Second

// bbvd drives an in-process serve.Server over loopback HTTP with two
// closed-loop clients. One cycle is a cold pass (Table II plus the
// budgeted ms-queue explore), a warm pass of in-memory cache hits, and
// a restart pass answered from the artifact store.
type bbvd struct {
	jobs    []job // the cold pass's Table II specs
	budget  job
	clients [2]*http.Client
}

func newBBVD() *bbvd {
	b := &bbvd{jobs: table2Jobs(), budget: budgetedJob()}
	for i := range b.clients {
		b.clients[i] = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	}
	return b
}

// server is one serve.Server behind an HTTP server on a loopback port.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan struct{} // closed when hs.Serve returns
}

// start opens the artifact store in dir, starts two serve workers and
// the HTTP listener. newTime is the serve.New part of it.
func start(dir string) (s *server, newTime time.Duration, err error) {
	t := time.Now()
	srv, err := serve.New(serve.Config{Workers: serveWorkers, StoreDir: dir})
	newTime = time.Since(t)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	s = &server{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, newTime, nil
}

// stopHTTP closes the listener and waits for the HTTP server to exit.
func (s *server) stopHTTP(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	<-s.served
	return err
}

// stop shuts down the HTTP side, then drains the service.
func (s *server) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	return errors.Join(s.stopHTTP(ctx), s.srv.Shutdown(ctx))
}

// setup times a server start on a fresh store, up to its first healthy
// response, then tears it down.
func (b *bbvd) setup() (time.Duration, error) {
	dir, err := os.MkdirTemp("", "perfbench-bbvd-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t := time.Now()
	s, _, err := start(dir)
	if err != nil {
		return 0, err
	}
	err = b.healthy(s.base)
	d := time.Since(t)
	return d, errors.Join(err, s.stop(context.Background()))
}

func (b *bbvd) healthy(base string) error {
	resp, err := b.clients[0].Get(base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func (b *bbvd) procs() int { return serveWorkers }

func (b *bbvd) pass(ctx context.Context, r *run) { b.cycle(ctx, r, false) }

func (b *bbvd) tracedPass(ctx context.Context, r *run) { b.cycle(ctx, r, true) }

// reply is one submission as the client saw it.
type reply struct {
	job          job
	post         time.Duration // POST round trip
	first        time.Duration // POST start to first stage event; -1 if none
	stage0       time.Duration // elapsed time the first stage event reports
	total        time.Duration // POST start to the done event
	staged       time.Duration // summed stage time of the result
	stages       int
	cached       bool // answered from a cache at submission
	cachedStages int
	out          outcome // the answer the done event carried
	err          error
}

// cycle runs one cold, warm and restart pass against a fresh store.
func (b *bbvd) cycle(ctx context.Context, r *run, traced bool) {
	dir, err := os.MkdirTemp("", "perfbench-bbvd-")
	if err != nil {
		r.fail("bbvd", err)
		return
	}
	defer os.RemoveAll(dir)
	s, _, err := start(dir)
	if err != nil {
		r.fail("bbvd", err)
		return
	}
	var tr *tracer
	var mark int
	if traced {
		tr, mark = r.tr, r.tr.mark()
	}
	all := append([]job{b.budget}, b.jobs...)
	begin := time.Now()

	// Cold pass: the long budgeted job goes first so the critical path
	// does not depend on the seed; the rest follow in seeded order.
	cold := append([]job{b.budget}, permute(r.rng, b.jobs)...)
	coldReplies := b.drive(ctx, r, tr, s.base, cold)
	var warm []job
	for range warmRounds {
		warm = append(warm, permute(r.rng, all)...)
	}
	warmReplies := b.drive(ctx, r, tr, s.base, warm)

	// Restart pass: drain, reopen the same store, resubmit once.
	sp := b.span(tr, "artifact.drain")
	t := time.Now()
	err = s.stop(ctx)
	drain := time.Since(t)
	b.endSpan(tr, sp)
	if err != nil {
		r.fail("bbvd drain", err)
		return
	}
	storeBytes := s.srv.Store().Bytes()
	sp = b.span(tr, "artifact.reopen")
	s, reopen, err := start(dir)
	b.endSpan(tr, sp)
	if err != nil {
		r.fail("bbvd reopen", err)
		return
	}
	restartReplies := b.drive(ctx, r, tr, s.base, permute(r.rng, all))
	storeHits := s.srv.Metrics().ArtifactHitsTotal.Load()
	wall := time.Since(begin)
	if err := s.stop(ctx); err != nil {
		r.fail("bbvd shutdown", err)
	}
	for _, c := range b.clients {
		c.CloseIdleConnections()
	}

	// Fold the replies into the run.
	var submit, wait, overhead, hit, storeHit samples
	hits, stages, cachedStages := 0, 0, 0
	for _, rp := range coldReplies {
		if rp.err != nil {
			continue
		}
		r.untraced[rp.job.name] = rp.out
		if !traced {
			r.latency = append(r.latency, rp.total.Seconds())
		}
		submit = append(submit, rp.post.Seconds()*1e3)
		if rp.first >= 0 {
			wait = append(wait, (rp.first-rp.post-rp.stage0).Seconds()*1e3)
		}
		overhead = append(overhead, (rp.total-rp.post-rp.staged).Seconds()*1e3)
		stages += rp.stages
		cachedStages += rp.cachedStages
	}
	for _, rp := range warmReplies {
		if rp.err == nil {
			hit = append(hit, rp.total.Seconds()*1e3)
			if !traced {
				r.hits = append(r.hits, rp.total.Seconds())
			}
		}
	}
	for _, rp := range restartReplies {
		if rp.err == nil {
			storeHit = append(storeHit, rp.total.Seconds()*1e3)
		}
	}
	for _, rps := range [][]reply{coldReplies, warmReplies, restartReplies} {
		for _, rp := range rps {
			if rp.cached {
				hits++
			}
		}
	}
	if storeHits < int64(len(all)) {
		r.fail("bbvd restart", fmt.Errorf("%d of %d resubmissions came from the artifact store", storeHits, len(all)))
	}
	if !traced {
		r.wall = append(r.wall, wall.Seconds())
	}
	r.perPass("serve.submit_ms", submit.median())
	r.perPass("serve.queue_wait_ms", wait.median())
	r.perPass("serve.job_overhead_ms", overhead.median())
	r.perPass("serve.cache_hit_ratio", float64(hits)/float64(len(coldReplies)+len(warmReplies)+len(restartReplies)))
	r.perPass("serve.hit_p50_ms", hit.median())
	r.perPass("serve.hit_p90_ms", hit.quantile(0.9))
	r.perPass("artifact.drain_ms", drain.Seconds()*1e3)
	r.perPass("artifact.reopen_ms", reopen.Seconds()*1e3)
	r.perPass("artifact.store_hit_p50_ms", storeHit.median())
	r.perPass("artifact.bytes", float64(storeBytes))
	r.recordStages(stages, cachedStages)
	if !traced {
		return
	}

	// Off the clock: the submit-time vet pass bbvd runs on each miss,
	// and the budgeted job through the traced pipeline, for the vet and
	// statestore layers.
	onClock := r.tr.mark() - mark
	for _, j := range cold {
		r.nextJob++
		sp := r.tr.begin(-1, r.nextJob, "vet.check")
		_, err := api.VetSpec(j.spec)
		r.tr.end(sp)
		if err != nil {
			r.fail(j.name+" (vet)", err)
		}
	}
	r.nextJob++
	r.attempted++
	o, err := tracedJob(ctx, r.tr, r.nextJob, b.budget)
	if err == nil {
		err = b.budget.want.judge(b.budget.spec.Kind, o)
	}
	if err == nil {
		err = r.agree(b.budget.name, o)
	}
	if err != nil {
		r.fail(b.budget.name+" (traced)", err)
	}
	r.recordTraced(wall, r.tr.since(mark), onClock)
}

// span opens a root span when tracing; -1 otherwise.
func (b *bbvd) span(tr *tracer, name string) int {
	if tr == nil {
		return -1
	}
	return tr.begin(-1, 0, name)
}

func (b *bbvd) endSpan(tr *tracer, i int) {
	if tr != nil {
		tr.end(i)
	}
}

// drive sends jobs through both clients, each taking the next job from
// the shared seeded order once its previous one is done, and checks
// every answer.
func (b *bbvd) drive(ctx context.Context, r *run, tr *tracer, base string, jobs []job) []reply {
	var mu sync.Mutex
	next := 0
	replies := make([]reply, len(jobs))
	var wg sync.WaitGroup
	for _, hc := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				id := 0
				if tr != nil {
					r.nextJob++
					id = r.nextJob
				}
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				replies[i] = b.submit(ctx, hc, tr, id, base, jobs[i])
			}
		}()
	}
	wg.Wait()
	for _, rp := range replies {
		r.attempted++
		if rp.err != nil {
			r.fail(rp.job.name+" (bbvd)", rp.err)
		}
	}
	return replies
}

// submit POSTs one job and follows its event stream to the done event.
func (b *bbvd) submit(ctx context.Context, hc *http.Client, tr *tracer, id int, base string, j job) (rp reply) {
	rp = reply{job: j, first: -1}
	body, err := json.Marshal(j.spec)
	if err != nil {
		rp.err = err
		return rp
	}
	root, sp := -1, -1
	if tr != nil {
		root = tr.begin(-1, id, "serve.job")
		defer tr.end(root)
		sp = tr.begin(root, id, "serve.submit")
	}
	t0 := time.Now()
	var view serve.JobView
	rp.err = do(ctx, hc, http.MethodPost, base+"/v1/jobs", body, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		return json.NewDecoder(resp.Body).Decode(&view)
	})
	rp.post = time.Since(t0)
	rp.cached = view.Cached
	if tr != nil {
		tr.end(sp)
		sp = tr.begin(root, id, "serve.events")
		defer tr.end(sp)
	}
	if rp.err != nil {
		return rp
	}
	rp.err = do(ctx, hc, http.MethodGet, base+"/v1/jobs/"+view.ID+"/events", nil, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET events: %s", resp.Status)
		}
		return rp.follow(resp.Body, t0)
	})
	return rp
}

// follow reads the SSE stream until the done event and judges the
// result it carries.
func (rp *reply) follow(body io.Reader, t0 time.Time) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case serve.EventStage:
			if rp.first < 0 {
				rp.first = time.Since(t0)
				var st api.StageJSON
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return err
				}
				rp.stage0 = time.Duration(st.ElapsedUS) * time.Microsecond
			}
		case serve.EventDone:
			rp.total = time.Since(t0)
			var v serve.JobView
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				return err
			}
			if v.Status != serve.StatusDone {
				return fmt.Errorf("job ended %s: %s", v.Status, v.Error)
			}
			for _, st := range v.Result.Stages {
				rp.staged += time.Duration(st.ElapsedUS) * time.Microsecond
				if st.Cached {
					rp.cachedStages++
				}
			}
			rp.stages = len(v.Result.Stages)
			o, err := outcomeOf(v.Result)
			if err != nil {
				return err
			}
			rp.out = o
			return rp.job.want.judge(rp.job.spec.Kind, o)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended without a done event")
}

// do sends one request and hands the response to read, always closing
// the body.
func do(ctx context.Context, hc *http.Client, method, url string, body []byte, read func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	err = read(resp)
	_, _ = io.Copy(io.Discard, resp.Body)
	return err
}
