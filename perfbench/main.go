// Command perfbench is radiomis's end-to-end benchmark. It starts an
// in-process radiomisd (one daemon, or a coordinator with two worker
// daemons) on loopback httptest servers, drives it with two closed-loop
// clients for a fixed time, checks every response, and prints the
// workload's end-to-end metrics. With -trace 1 it instead runs half the
// time untraced and half traced, replays the workload's first requests
// through the layers' public calls, and prints the per-layer metrics and a
// self-time breakdown.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solve-gnp-scalar --seed 1 --seconds 28 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any request failed or any check did not hold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
	"radiomis/internal/schedule"
	"radiomis/internal/server"
	"radiomis/internal/trace"
)

// clients is the number of closed-loop clients, one per core of the
// 2-vCPU host the benchmark is tuned on.
const clients = 2

// setupReps is how many times a run deploys the daemon(s) and serves a
// first request; setup_s is the median.
const setupReps = 5

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

// metricDef names one reported metric; BENCHMARK.json lists the same.
type metricDef struct{ name, unit, better string }

var endToEndMetrics = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"success_frac", "ratio", "higher"},
	{"rss_median_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// printedOnlyMetrics are printed with the end-to-end metrics but left out
// of the JSON result: failed_frac is 0 on a healthy run (success_frac is
// its complement), and the peak resident set swings with GC timing by
// more than any regression bound could tolerate (rss_median_mb is the
// steady figure).
var printedOnlyMetrics = []metricDef{
	{"failed_frac", "ratio", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

var perLayerMetrics = []metricDef{
	{"graph.generate_ms", "ms", "lower"},
	{"graph.csr_build_ms", "ms", "lower"},
	{"graph.generate_calls_per_req", "count", "lower"},
	{"radio.scalar_trial_ms", "ms", "lower"},
	{"radio.scalar_node_rounds_per_s", "1/s", "higher"},
	{"radio.scalar_rounds_per_trial", "count", "lower"},
	{"radio.lockstep_batch_ms", "ms", "lower"},
	{"radio.lockstep_trial_ms", "ms", "lower"},
	{"radio.lockstep_lanes_per_batch", "count", "higher"},
	{"mis.check_ms", "ms", "lower"},
	{"mis.valid_ratio", "ratio", "higher"},
	{"mis.max_energy", "count", "lower"},
	{"harness.repeat_ms", "ms", "lower"},
	{"harness.idle_frac", "ratio", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.run_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.response_kb", "KiB", "lower"},
	{"server.rejected_frac", "ratio", "lower"},
	{"store.bytes_per_job", "B", "lower"},
	{"store.replay_ms", "ms", "lower"},
	{"schedule.plan_ms", "ms", "lower"},
	{"schedule.batches_per_plan", "count", "lower"},
	{"cluster.shards_per_job", "count", "lower"},
	{"cluster.shard_run_ms", "ms", "lower"},
	{"cluster.shard_skew", "ratio", "lower"},
	{"cluster.fanout_overhead_ms", "ms", "lower"},
	{"cluster.steals", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed: fixes every generated request")
	seconds := fs.Float64("seconds", 28, "measurement time per run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload <name> -seconds >0 -trace 0|1:", err)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	// Every request must finish well inside the 180 s a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), dur+150*time.Second)
	defer cancel()
	b := &bench{w: w, seed: *seed, out: stdout}
	var res *result
	if *traced == 1 {
		res, err = b.traced(ctx, dur)
	} else {
		res, err = b.untraced(ctx, dur)
	}
	b.close()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc, _ := json.Marshal(res) // plain numbers and strings always marshal
	fmt.Fprintln(stdout, string(enc))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	w    *workload
	seed uint64
	out  io.Writer
	dir  string // per-run scratch directory under buildDir
	hc   *http.Client
}

func (b *bench) init() error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	b.dir = dir
	b.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	fmt.Fprintf(b.out, "perfbench workload=%s seed=%d clients=%d (closed loop)\n", b.w.name, b.seed, clients)
	return nil
}

func (b *bench) close() {
	if b.hc != nil {
		b.hc.CloseIdleConnections()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// hostLine records what makes a run on a throttled or different host
// recognizable.
func (b *bench) hostLine(start cpuStat) {
	fmt.Fprintf(b.out, "host go=%s gomaxprocs=%d nproc=%d seed=%d steal=%.2f%%\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), b.seed, 100*stealShare(start, readCPUStat()))
}

// setUp deploys the workload's daemon(s) and serves one warm-up request,
// setupReps times, keeping the last deployment. The warm-up requests come
// from their own streams, so the measured streams are untouched.
func (b *bench) setUp(ctx context.Context, tr *trace.Tracer) ([]time.Duration, *deployment, error) {
	var times []time.Duration
	for k := 0; ; k++ {
		start := time.Now()
		d, err := deploy(b.w, b.dir, tr)
		if err != nil {
			return nil, nil, err
		}
		c := &client{base: d.url, http: b.hc, tr: tr}
		if o := c.do(ctx, newStream(^b.seed, k).next(b.w)); o.failure != "" {
			d.close()
			return nil, nil, fmt.Errorf("warm-up request: %s", o.failure)
		}
		times = append(times, time.Since(start))
		if k == setupReps-1 {
			return times, d, nil
		}
		d.close()
		b.hc.CloseIdleConnections()
	}
}

func newStreams(seed uint64) []*stream {
	s := make([]*stream, clients)
	for i := range s {
		s[i] = newStream(seed, i)
	}
	return s
}

func (b *bench) untraced(ctx context.Context, dur time.Duration) (*result, error) {
	if err := b.init(); err != nil {
		return nil, err
	}
	stat0 := readCPUStat()
	setups, d, err := b.setUp(ctx, nil)
	if err != nil {
		return nil, err
	}
	p := runClosedLoop(ctx, &client{base: d.url, http: b.hc}, b.w, newStreams(b.seed), dur)
	d.close()
	b.verify(ctx, p.outcomes)
	b.hostLine(stat0)

	e := summarize(p)
	m := map[string]float64{
		"throughput_rps": e.throughput,
		"latency_p50_ms": e.p50,
		"latency_p90_ms": e.p90,
		"cpu_ms_per_req": e.cpuPerReq,
		"success_frac":   1 - e.failedFrac,
		"rss_median_mb":  percentile(p.rss, 50),
		"setup_s":        median(setups).Seconds(),
		"failed_frac":    e.failedFrac,
		"peak_rss_mb":    peakRSSMB(),
	}
	samples := map[string]string{
		"throughput_rps": fmt.Sprintf("%d requests in %.2f s", e.ok, p.elapsed.Seconds()),
		"latency_p50_ms": fmt.Sprintf("%d requests", e.ok),
		"latency_p90_ms": fmt.Sprintf("%d requests", e.ok),
		"cpu_ms_per_req": fmt.Sprintf("%d requests", e.ok),
		"success_frac":   fmt.Sprintf("%d attempted", e.attempted),
		"rss_median_mb":  fmt.Sprintf("%d samples, one per 50 ms", len(p.rss)),
		"setup_s":        fmt.Sprintf("median of %d set-ups", len(setups)),
		"failed_frac":    fmt.Sprintf("%d of %d attempted (not in the JSON result)", e.failed, e.attempted),
		"peak_rss_mb":    "VmHWM of the process (not in the JSON result)",
	}
	fmt.Fprintf(b.out, "%-22s %12s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, def := range append(endToEndMetrics[:len(endToEndMetrics):len(endToEndMetrics)], printedOnlyMetrics...) {
		fmt.Fprintf(b.out, "%-22s %12.4f %-6s %s\n", def.name, m[def.name], def.unit, samples[def.name])
	}
	if e.ok < 100 {
		fmt.Fprintf(b.out, "warning: p90 rests on %d requests; it needs 100 for 10 beyond it\n", e.ok)
	}
	if tp := tailPercentile(e.ok); tp > 0 {
		fmt.Fprintf(b.out, "tail: p%g = %.3f ms is the highest percentile with >= %d samples beyond it\n",
			tp, percentile(e.latencies, tp), minTail)
	}
	return b.result(m, endToEndMetrics, p.outcomes), nil
}

func (b *bench) result(m map[string]float64, defs []metricDef, outs []outcome) *result {
	res := &result{Attempted: len(outs), Metrics: make(map[string]metricValue)}
	for _, o := range outs {
		if o.failure != "" {
			if res.Failed < 5 {
				fmt.Fprintf(b.out, "FAILED %s seed=%d: %s\n", o.req.kind(), o.req.seed(), o.failure)
			}
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	for _, def := range defs {
		res.Metrics[def.name] = metricValue{Value: m[def.name], Unit: def.unit}
	}
	return res
}

// e2e is a phase's end-to-end summary.
type e2e struct {
	ok, failed, attempted int
	latencies             []float64 // ms, sorted, successful requests only
	throughput, p50, p90  float64
	cpuPerReq, failedFrac float64
}

func summarize(p *phase) e2e {
	var e e2e
	e.attempted = len(p.outcomes)
	for _, o := range p.outcomes {
		if o.failure != "" {
			e.failed++
			continue
		}
		e.latencies = append(e.latencies, ms(o.latency))
	}
	sort.Float64s(e.latencies)
	e.ok = len(e.latencies)
	e.throughput = ratio(float64(e.ok), p.elapsed.Seconds())
	e.p50, e.p90 = percentile(e.latencies, 50), percentile(e.latencies, 90)
	e.cpuPerReq = ratio(ms(p.cpu), float64(e.ok))
	e.failedFrac = ratio(float64(e.failed), float64(e.attempted))
	return e
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// verify runs the checks that need more than the response, after the timed
// window: schedule plans against their regenerated graphs, and cluster
// results against a single-node execution. It prints the run's result
// digest over the requests of the digest prefix.
func (b *bench) verify(ctx context.Context, outs []outcome) {
	// A plan must be independent in its graph; a repeated seed must get
	// the same plan again, so each distinct plan is checked once.
	first := make(map[uint64]int)
	var todo []int
	for i := range outs {
		o := &outs[i]
		if o.labels == nil {
			continue
		}
		if j, ok := first[o.req.seed()]; ok {
			if !slices.Equal(outs[j].labels, o.labels) {
				o.failure = "plan differs from the earlier plan for the same request"
			}
			continue
		}
		first[o.req.seed()] = i
		todo = append(todo, i)
	}
	parallelEach(len(todo), func(k int) {
		o := &outs[todo[k]]
		fam, err := graph.ParseFamily(o.req.sched.Family)
		if err == nil {
			err = checkIndependent(graph.Generate(fam, o.req.sched.N, rng.New(o.req.seed())), o.labels)
		}
		if err != nil {
			o.failure = err.Error()
		}
	})
	for i := range outs {
		outs[i].labels = nil
	}

	var entries []digestEntry
	for i := range outs {
		o := &outs[i]
		if o.digest == "" {
			continue
		}
		if b.w.cluster {
			// A fanned-out job must equal the single-node execution.
			req := *o.req.solve
			if err := req.Normalize(); err != nil {
				o.failure = err.Error()
			} else if res, err := server.ExecuteLocal(ctx, req); err != nil {
				o.failure = "single-node reference: " + err.Error()
			} else if want := solveDigest(res.Solve); want != o.digest {
				o.failure = fmt.Sprintf("cluster result %s differs from single-node result %s", o.digest, want)
			}
		}
		entries = append(entries, digestEntry{o.req.seed(), o.req.kind(), o.digest})
	}
	if len(entries) > 0 {
		fmt.Fprintf(b.out, "digest %s over %d requests (the first %d of each client, by seed)\n",
			runDigest(entries), len(entries), digestPrefix)
	}
}

// parallelEach calls f(0..n-1) on GOMAXPROCS goroutines and waits.
func parallelEach(n int, f func(i int)) {
	next := make(chan int)
	done := make(chan struct{})
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range next {
				f(i)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		<-done
	}
}

func (b *bench) traced(ctx context.Context, dur time.Duration) (*result, error) {
	if err := b.init(); err != nil {
		return nil, err
	}
	stat0 := readCPUStat()
	half := dur / 2
	streams := newStreams(b.seed)

	// Untraced half: the reference throughput for trace.overhead_frac,
	// and the stream prefix the replay re-runs.
	_, d, err := b.setUp(ctx, nil)
	if err != nil {
		return nil, err
	}
	p1 := runClosedLoop(ctx, &client{base: d.url, http: b.hc}, b.w, streams, half)
	d.close()
	b.verify(ctx, p1.outcomes)

	// Traced half: the daemons record their spans into the benchmark's
	// tracer, under the client's request spans.
	tr := trace.New(1 << 17)
	_, d, err = b.setUp(ctx, tr)
	if err != nil {
		return nil, err
	}
	before, err := scrape(ctx, b.hc, d.url)
	if err != nil {
		d.close()
		return nil, err
	}
	p2 := runClosedLoop(ctx, &client{base: d.url, http: b.hc, tr: tr}, b.w, streams, half)
	after, err := scrape(ctx, b.hc, d.url)
	var shards []*server.JobStatus
	for _, u := range d.workers {
		if err == nil {
			var js []*server.JobStatus
			js, err = workerJobs(ctx, b.hc, u)
			shards = append(shards, js...)
		}
	}
	d.close()
	if err != nil {
		return nil, err
	}
	var walReplay time.Duration
	if d.walDir != "" {
		var jobs int
		if walReplay, jobs, err = reopenWAL(d.walDir); err != nil {
			return nil, err
		}
		fmt.Fprintf(b.out, "store.Open replayed %d jobs in %.3f ms\n", jobs, ms(walReplay))
	}
	b.verify(ctx, p2.outcomes)

	rp := &replayer{tr: tr, planner: schedule.NewPlanner()}
	defer rp.planner.Close()
	for _, o := range p1.outcomes {
		if o.req.index < digestPrefix && o.failure == "" {
			if err := rp.replay(ctx, o); err != nil {
				return nil, fmt.Errorf("replay %s seed=%d: %w", o.req.kind(), o.req.seed(), err)
			}
		}
	}
	b.hostLine(stat0)

	e1, e2 := summarize(p1), summarize(p2)
	m := b.layerMetrics(rp, p2, e2, before, after, shards)
	m["store.replay_ms"] = ms(walReplay)
	m["trace.overhead_frac"] = 1 - ratio(e2.throughput, e1.throughput)
	fmt.Fprintf(b.out, "untraced half: %d requests, %.3f req/s, p50 %.3f ms; traced half: %d requests, %.3f req/s, p50 %.3f ms\n",
		e1.ok, e1.throughput, e1.p50, e2.ok, e2.throughput, e2.p50)

	ids := make(map[trace.TraceID]bool)
	meanLat := 0.0
	for _, o := range p2.outcomes {
		if o.failure == "" {
			ids[o.trace] = true
			meanLat += ms(o.latency)
		}
	}
	meanLat = ratio(meanLat, float64(len(ids)))
	spans := tr.Spans()
	if tr.Ended() > uint64(tr.Capacity()) {
		fmt.Fprintf(b.out, "warning: %d spans ended, the ring kept %d; early traces are incomplete\n", tr.Ended(), tr.Capacity())
	}
	rows, n := breakdown(spans, "request", ids)
	fmt.Fprintf(b.out, "traced requests: mean latency %.3f ms, p50 %.3f ms; \"request\" is the part no other span covers\n", meanLat, e2.p50)
	printBreakdown(b.out, "self time along the request path", rows, n, meanLat)
	rows, n = breakdown(spans, "replay", nil)
	printBreakdown(b.out, "self time of the replayed executions", rows, n, 0)

	fmt.Fprintf(b.out, "%-32s %14s %s\n", "per-layer metric", "value", "unit")
	for _, def := range perLayerMetrics {
		fmt.Fprintf(b.out, "%-32s %14.4f %s\n", def.name, m[def.name], def.unit)
	}
	path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", b.w.name, b.seed))
	if err := writeChrome(path, tr); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "chrome trace: %s (%d spans)\n", path, len(spans))
	return b.result(m, perLayerMetrics, append(p1.outcomes, p2.outcomes...)), nil
}

// layerMetrics computes the per-layer metrics of a traced run. Metrics of
// a layer the workload does not use are 0.
func (b *bench) layerMetrics(rp *replayer, p *phase, e e2e, before, after map[string]float64, shards []*server.JobStatus) map[string]float64 {
	m := map[string]float64{
		"graph.generate_ms":              rp.generate.meanMs(),
		"graph.csr_build_ms":             rp.csr.meanMs(),
		"graph.generate_calls_per_req":   ratio(float64(rp.generateCalls), float64(rp.requests)),
		"radio.scalar_trial_ms":          rp.scalarRun.meanMs(),
		"radio.scalar_node_rounds_per_s": ratio(rp.nodeRounds, rp.scalarRun.sum.Seconds()),
		"radio.scalar_rounds_per_trial":  ratio(rp.scalarRounds, float64(rp.scalarTrials)),
		"radio.lockstep_batch_ms":        rp.batchRun.meanMs(),
		"radio.lockstep_trial_ms":        ratio(ms(rp.batchRun.sum), float64(rp.lanes)),
		"radio.lockstep_lanes_per_batch": ratio(float64(rp.lanes), float64(rp.batches)),
		"mis.check_ms":                   rp.check.meanMs(),
		"mis.valid_ratio":                ratio(float64(rp.valid), float64(rp.trials)),
		"mis.max_energy":                 ratio(rp.maxEnergy, float64(rp.trials)),
		"harness.repeat_ms":              rp.repeat.meanMs(),
		"harness.idle_frac":              0,
		"schedule.plan_ms":               rp.plan.meanMs(),
		"schedule.batches_per_plan":      ratio(float64(rp.planBatches), float64(rp.plans)),
	}
	if rp.capacity > 0 {
		m["harness.idle_frac"] = 1 - ratio(float64(rp.busy), float64(rp.capacity))
	}

	var executed, cached, rejected, bytes int
	var queue, run, overhead float64
	for _, o := range p.outcomes {
		bytes += o.bytes
		if o.rejected {
			rejected++
		}
		if o.failure != "" {
			continue
		}
		if o.cached {
			cached++
		}
		if o.executed {
			executed++
			queue += o.queueMs
			run += o.runMs
			overhead += ms(o.latency) - o.queueMs - o.runMs
		}
	}
	m["server.queue_wait_ms"] = ratio(queue, float64(executed))
	m["server.run_ms"] = ratio(run, float64(executed))
	m["server.overhead_ms"] = ratio(overhead, float64(executed))
	m["server.cache_hit_ratio"] = ratio(float64(cached), float64(e.ok))
	m["server.response_kb"] = ratio(float64(bytes)/1024, float64(len(p.outcomes)))
	m["server.rejected_frac"] = ratio(float64(rejected), float64(len(p.outcomes)))

	delta := func(name string) float64 { return after[name] - before[name] }
	if b.w.wal {
		m["store.bytes_per_job"] = ratio(delta("radiomisd_wal_append_bytes_total"), delta("radiomisd_jobs_executed_total"))
	}
	if b.w.cluster {
		m["cluster.shards_per_job"], m["cluster.shard_run_ms"], m["cluster.shard_skew"], m["cluster.fanout_overhead_ms"] =
			clusterStats(p.outcomes, shards)
		m["cluster.steals"] = delta("radiomisd_cluster_shards_stolen_total")
	}
	return m
}
