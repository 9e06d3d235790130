package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/mis"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
	"radiomis/internal/schedule"
	"radiomis/internal/server"
	"radiomis/internal/trace"
)

// replayer re-runs requests the daemon executed through the public calls
// server.execute and Manager.Schedule make — graph.Generate,
// graph.BuildCSR, mis.Run under harness.Repeat or mis.RunMany under
// harness.RepeatBatches, Result.Check, schedule.Planner.Batches — each in
// a span, and accumulates the per-layer numbers those calls give.
type replayer struct {
	tr      *trace.Tracer
	planner *schedule.Planner

	// mu guards the fields below: harness workers update them at once.
	mu                                        sync.Mutex
	requests, generateCalls                   int
	generate, csr, scalarRun, batchRun, check acc
	repeat, plan                              acc
	scalarTrials                              int
	scalarRounds, nodeRounds                  float64
	batches, lanes, trials, valid             int
	maxEnergy                                 float64
	busy, capacity                            time.Duration
	plans, planBatches                        int
}

// timed runs f in a span named name under parent and adds its duration
// to a.
func (r *replayer) timed(parent *trace.Span, name string, a *acc, f func()) {
	sp := r.tr.StartSpan(parent.Context(), name, time.Now())
	f()
	sp.End()
	r.mu.Lock()
	a.add(sp.Duration())
	r.mu.Unlock()
}

// replay re-runs one request as the daemon ran it. A request the daemon
// answered from its cache did no work, and is replayed as none.
func (r *replayer) replay(ctx context.Context, o outcome) error {
	r.requests++
	if o.cached {
		return nil
	}
	root := r.tr.StartSpan(trace.SpanContext{}, "replay", time.Now(),
		trace.A("kind", o.req.kind()), trace.A("seed", o.req.seed()))
	defer root.End()
	if o.req.sched != nil {
		return r.schedule(ctx, root, o.req.sched)
	}
	return r.solve(ctx, root, o.req)
}

func (r *replayer) generateGraph(parent *trace.Span, family string, n int, seed uint64) (*graph.Graph, error) {
	fam, err := graph.ParseFamily(family)
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	r.timed(parent, "graph.generate", &r.generate, func() { g = graph.Generate(fam, n, rng.New(seed)) })
	r.mu.Lock()
	r.generateCalls++
	r.mu.Unlock()
	return g, nil
}

func (r *replayer) schedule(ctx context.Context, root *trace.Span, req *server.ScheduleRequest) error {
	g, err := r.generateGraph(root, req.Family, req.N, req.Seed)
	if err != nil {
		return err
	}
	var plan *schedule.Plan
	r.timed(root, "schedule.batches", &r.plan, func() {
		plan, err = r.planner.Batches(g, schedule.Options{Algorithm: req.Algorithm, Seed: req.Seed, Ctx: ctx})
	})
	if err != nil {
		return err
	}
	r.plans++
	r.planBatches += plan.NumBatches()
	return nil
}

func (r *replayer) solve(ctx context.Context, root *trace.Span, req request) error {
	job := req.solve
	info, _ := mis.Describe(job.Algorithm)
	radioAlgo := info.Model != mis.ModelSequential
	hopts := harness.Options{Trials: job.Trials, Seed: job.Seed}
	var rep *trace.Span
	var start time.Time
	var err error
	if req.wantEngine == mis.EngineLockstep {
		// All trials share the graph the job seed generates.
		var g *graph.Graph
		if g, err = r.generateGraph(root, job.Family, job.N, job.Seed); err != nil {
			return err
		}
		r.timed(root, "graph.csr_build", &r.csr, func() { graph.BuildCSR(g) })
		p := mis.ParamsDefault(g.N(), g.MaxDegree())
		start = time.Now()
		rep = r.tr.StartSpan(root.Context(), "harness.repeat", start)
		_, err = harness.RepeatBatches(ctx, hopts, radio.MaxLanes,
			func(ctx context.Context, _ int, seeds []uint64) ([]harness.Metrics, error) {
				t0 := time.Now()
				var results []*mis.Result
				var err error
				r.timed(rep, "mis.run_many", &r.batchRun, func() {
					results, err = mis.RunMany(job.Algorithm, g, p, mis.ManyOpts{Seeds: seeds, Ctx: ctx, Engine: mis.EngineLockstep})
				})
				if err != nil {
					return nil, err
				}
				r.mu.Lock()
				r.batches++
				r.lanes += len(results)
				r.mu.Unlock()
				for _, res := range results {
					r.checkTrial(rep, g, res)
				}
				r.addBusy(time.Since(t0))
				return make([]harness.Metrics, len(seeds)), nil
			})
	} else {
		start = time.Now()
		rep = r.tr.StartSpan(root.Context(), "harness.repeat", start)
		_, err = harness.Repeat(ctx, hopts, func(ctx context.Context, seed uint64) (harness.Metrics, error) {
			t0 := time.Now()
			trial := r.tr.StartSpan(rep.Context(), "trial", t0)
			defer trial.End()
			g, err := r.generateGraph(trial, job.Family, job.N, seed)
			if err != nil {
				return nil, err
			}
			if radioAlgo {
				// The engine snapshots the graph as a CSR inside mis.Run;
				// this call times that step on its own.
				r.timed(trial, "graph.csr_build", &r.csr, func() { graph.BuildCSR(g) })
			}
			p := mis.ParamsDefault(g.N(), g.MaxDegree())
			runTime := &r.scalarRun
			if !radioAlgo {
				runTime = new(acc) // a sequential algorithm bypasses the radio engine
			}
			var res *mis.Result
			r.timed(trial, "mis.run", runTime, func() {
				res, err = mis.Run(job.Algorithm, g, p, mis.RunOpts{Seed: seed, Ctx: ctx})
			})
			if err != nil {
				return nil, err
			}
			if radioAlgo {
				r.mu.Lock()
				r.scalarTrials++
				r.scalarRounds += float64(res.Rounds)
				r.nodeRounds += float64(res.Rounds) * float64(g.N())
				r.mu.Unlock()
			}
			r.checkTrial(trial, g, res)
			r.addBusy(time.Since(t0))
			return nil, nil
		})
	}
	rep.End()
	wall := time.Since(start)
	r.repeat.add(wall)
	r.capacity += wall * time.Duration(runtime.GOMAXPROCS(0))
	return err
}

func (r *replayer) checkTrial(parent *trace.Span, g *graph.Graph, res *mis.Result) {
	var err error
	r.timed(parent, "mis.check", &r.check, func() { err = res.Check(g) })
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trials++
	if err == nil {
		r.valid++
	}
	r.maxEnergy += float64(res.MaxEnergy())
}

func (r *replayer) addBusy(d time.Duration) {
	r.mu.Lock()
	r.busy += d
	r.mu.Unlock()
}

// scrape fetches a daemon's /metrics and returns its unlabeled samples.
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// workerJobs fetches a worker daemon's job list (GET /v1/jobs).
func workerJobs(ctx context.Context, hc *http.Client, base string) ([]*server.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/jobs: %s", base, resp.Status)
	}
	var list server.JobList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("decode %s/v1/jobs: %w", base, err)
	}
	return list.Jobs, nil
}

// clusterStats matches coordinator jobs to their worker shard jobs by
// request seed and returns the cluster layer's per-job numbers.
func clusterStats(front []outcome, shards []*server.JobStatus) (perJob, runMs, skew, overheadMs float64) {
	bySeed := make(map[uint64][]float64)
	for _, st := range shards {
		if st.RunMs != nil && !st.Cached {
			bySeed[st.Request.Seed] = append(bySeed[st.Request.Seed], *st.RunMs)
		}
	}
	var jobs, nShards int
	var sumRun, sumSkew, sumOver float64
	for _, o := range front {
		runs := bySeed[o.req.seed()]
		if !o.executed || len(runs) == 0 {
			continue
		}
		sort.Float64s(runs)
		jobs++
		nShards += len(runs)
		for _, r := range runs {
			sumRun += r
		}
		slowest := runs[len(runs)-1]
		sumSkew += ratio(slowest, percentile(runs, 50))
		sumOver += o.runMs - slowest
	}
	return ratio(float64(nShards), float64(jobs)), ratio(sumRun, float64(nShards)),
		ratio(sumSkew, float64(jobs)), ratio(sumOver, float64(jobs))
}

// breakdown attributes the wall time of every trace whose root span is
// named rootName and whose ID is in ids, and returns the mean time per
// trace by span name. Spans running under a cluster shard are the worker
// daemons' and get a "worker/" prefix.
func breakdown(spans []*trace.Span, rootName string, ids map[trace.TraceID]bool) (map[string]float64, int) {
	byTrace := make(map[trace.TraceID][]*trace.Span)
	for _, s := range spans {
		if ids == nil || ids[s.Trace] {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	sums := make(map[string]float64)
	n := 0
	for _, group := range byTrace {
		var root *trace.Span
		byID := make(map[trace.SpanID]*trace.Span, len(group))
		for _, s := range group {
			byID[s.ID] = s
			if s.Name == rootName && s.Parent.IsZero() {
				root = s
			}
		}
		if root == nil {
			continue
		}
		n++
		for s, d := range attribute(root, group, eventStream) {
			sums[label(s, byID)] += ms(d)
		}
	}
	for k := range sums {
		sums[k] /= float64(max(n, 1))
	}
	return sums, n
}

// eventStream reports whether s reads a job's event stream: the client's
// call or the daemon's handler of GET /v1/jobs/{id}/events. Both only
// wait for the job, whose own spans account for that time.
func eventStream(s *trace.Span) bool {
	if s.Name == "client.events" {
		return true
	}
	if s.Name != "http.request" {
		return false
	}
	for _, a := range s.Attrs {
		if p, ok := a.Value.(string); ok && a.Key == "path" {
			return strings.HasSuffix(p, "/events")
		}
	}
	return false
}

func label(s *trace.Span, byID map[trace.SpanID]*trace.Span) string {
	for p := byID[s.Parent]; p != nil; p = byID[p.Parent] {
		if p.Name == "cluster.shard" {
			return "worker/" + s.Name
		}
	}
	return s.Name
}

// printBreakdown prints a self-time table, largest first.
func printBreakdown(w io.Writer, title string, rows map[string]float64, n int, total float64) {
	names := make([]string, 0, len(rows))
	for k := range rows {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]] > rows[names[j]] })
	fmt.Fprintf(w, "%s (%d traces; ms per trace; concurrent spans share their overlap)\n", title, n)
	sum := 0.0
	for _, k := range names {
		sum += rows[k]
	}
	if total == 0 {
		total = sum
	}
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %10.3f  %5.1f%%\n", k, rows[k], 100*ratio(rows[k], total))
	}
	fmt.Fprintf(w, "  %-28s %10.3f\n", "sum", sum)
}

// writeChrome writes every retained span as a Chrome trace-event file.
func writeChrome(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tr.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
