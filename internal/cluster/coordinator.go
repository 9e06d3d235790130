package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"radiomis/internal/retry"
	"radiomis/internal/server"
	"radiomis/internal/stats"
	"radiomis/internal/telemetry"
	"radiomis/internal/trace"
)

// Options configures a Coordinator.
type Options struct {
	// Workers are the base URLs of the worker daemons (required, ≥ 1).
	Workers []string
	// ShardsPerWorker sets the fan-out granularity: a job splits into up to
	// len(Workers)×ShardsPerWorker seed-range shards (default 2). More than
	// one shard per worker keeps a slow worker from gating the whole job —
	// fast workers drain the shared shard queue.
	ShardsPerWorker int
	// Liveness is how long a shard's event stream may go silent before the
	// worker is declared dead and the shard stolen (default 30s; must
	// comfortably exceed the workers' -event-heartbeat interval).
	Liveness time.Duration
	// Fallback executes jobs the coordinator does not shard — experiment
	// jobs, single-trial solves, and fan-outs that lose every worker
	// (default server.ExecuteLocal).
	Fallback server.ExecuteFunc
	// DisableFallback turns the lose-every-worker degradation off: a
	// fan-out with no live workers fails the job instead of silently
	// running it on the coordinator. Unsharded kinds still run locally.
	// GET /readyz reports a coordinator with all workers dead and
	// degradation disabled as not ready.
	DisableFallback bool
	// FederateInterval is how often the coordinator pulls each worker's
	// /v1/telemetry snapshot for the federated /metrics and /v1/cluster
	// views (default 15s; negative disables federation polling).
	FederateInterval time.Duration
	// Tracer, when non-nil, receives the workers' spans during trace
	// stitching (StitchTrace): pass the same tracer the server.Manager
	// runs with, so pulled worker spans land in the ring /debug/traces
	// serves.
	Tracer *trace.Tracer
	// Registry receives the radiomisd_cluster_* metric families (optional).
	Registry *telemetry.Registry
	// Logger receives fan-out and steal logs (default slog.Default()).
	Logger *slog.Logger
	// HTTPClient is shared by all worker clients (optional).
	HTTPClient *http.Client
	// Retry overrides the worker clients' submit backoff (zero value keeps
	// the client default).
	Retry retry.Policy
	// Rand injects jitter randomness for the clients (tests pin it).
	Rand func() float64
}

// Coordinator fans solve jobs out across worker daemons. Install its
// Executor as server.Options.Executor and the coordinator slots into the
// ordinary job lifecycle: jobs still queue, dedupe, cache, persist, and
// stream events exactly as on a single node — only the execution step is
// distributed.
type Coordinator struct {
	opts    Options
	clients []*Client
	met     *clusterMetrics

	mu      sync.Mutex
	workers []workerInfo
	fanouts uint64
	locals  uint64
	shards  uint64
	stolen  uint64

	// Federation poller state: the latest telemetry snapshot pulled from
	// each worker (by client index), guarded by fedMu; the poller goroutine
	// runs from New until Close.
	fedMu    sync.Mutex
	fedSnaps []fedSnapshot
	fedStop  chan struct{}
	fedWG    sync.WaitGroup

	// stitchMu serializes StitchTrace: the dedup-against-the-ring pass and
	// the imports must be atomic, or a concurrent on-demand stitch and the
	// post-fanout auto-stitch would both import the same remote spans.
	stitchMu sync.Mutex
}

// fedSnapshot is one worker's most recent federation pull.
type fedSnapshot struct {
	snap    telemetry.RegistrySnapshot
	at      time.Time // zero until the first successful pull
	lastErr string
}

// workerInfo is per-worker bookkeeping behind GET /v1/cluster.
type workerInfo struct {
	url        string
	live       bool
	shardsDone uint64
	lastErr    string
}

// New validates opts and builds the coordinator and its worker clients.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one worker URL")
	}
	if opts.ShardsPerWorker <= 0 {
		opts.ShardsPerWorker = 2
	}
	if opts.Liveness <= 0 {
		opts.Liveness = 30 * time.Second
	}
	if opts.Fallback == nil {
		opts.Fallback = server.ExecuteLocal
	}
	if opts.FederateInterval == 0 {
		opts.FederateInterval = 15 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	c := &Coordinator{opts: opts}
	for _, w := range opts.Workers {
		var copts []ClientOption
		if opts.HTTPClient != nil {
			copts = append(copts, WithHTTPClient(opts.HTTPClient))
		}
		if opts.Retry != (retry.Policy{}) {
			copts = append(copts, WithRetryPolicy(opts.Retry))
		}
		if opts.Rand != nil {
			copts = append(copts, WithRand(opts.Rand))
		}
		cl := NewClient(w, copts...)
		c.clients = append(c.clients, cl)
		c.workers = append(c.workers, workerInfo{url: cl.Base(), live: true})
	}
	c.met = newClusterMetrics(opts.Registry)
	if c.met != nil {
		c.met.workersConfigured.Set(int64(len(c.clients)))
		c.met.workersLive.Set(int64(len(c.clients)))
	}
	c.fedSnaps = make([]fedSnapshot, len(c.clients))
	c.fedStop = make(chan struct{})
	if opts.FederateInterval > 0 {
		c.fedWG.Add(1)
		go c.federate()
	}
	return c, nil
}

// Close stops the federation poller. Jobs in flight are unaffected; call
// it after the manager has drained.
func (c *Coordinator) Close() {
	select {
	case <-c.fedStop:
	default:
		close(c.fedStop)
	}
	c.fedWG.Wait()
}

// clusterMetrics is the radiomisd_cluster_* family set; nil when the
// coordinator runs without a registry.
type clusterMetrics struct {
	workersConfigured *telemetry.Gauge
	workersLive       *telemetry.Gauge
	fanouts           *telemetry.Counter
	locals            *telemetry.Counter
	shards            *telemetry.Counter
	shardsDone        *telemetry.Counter
	stolen            *telemetry.Counter
	failures          *telemetry.Counter
	shardSeconds      *telemetry.Histogram
	fanoutSeconds     *telemetry.Histogram
}

func newClusterMetrics(reg *telemetry.Registry) *clusterMetrics {
	if reg == nil {
		return nil
	}
	return &clusterMetrics{
		workersConfigured: reg.Gauge("radiomisd_cluster_workers",
			"Worker daemons configured on the coordinator."),
		workersLive: reg.Gauge("radiomisd_cluster_workers_live",
			"Workers that completed their most recent shard (dead workers are retried on the next fan-out)."),
		fanouts: reg.Counter("radiomisd_cluster_fanouts_total",
			"Jobs sharded across workers."),
		locals: reg.Counter("radiomisd_cluster_local_executions_total",
			"Jobs executed locally (unsharded kinds, single trials, or cluster fallback)."),
		shards: reg.Counter("radiomisd_cluster_shards_total",
			"Shards dispatched to workers, including re-dispatches of stolen shards."),
		shardsDone: reg.Counter("radiomisd_cluster_shards_completed_total",
			"Shards completed successfully."),
		stolen: reg.Counter("radiomisd_cluster_shards_stolen_total",
			"Shards requeued after their worker died or stalled."),
		failures: reg.Counter("radiomisd_cluster_fanout_failures_total",
			"Fan-outs that failed outright (every worker lost, or a shard failed deterministically)."),
		shardSeconds: reg.Histogram("radiomisd_cluster_shard_seconds",
			"Per-shard wall time: submit through terminal state on the worker."),
		fanoutSeconds: reg.Histogram("radiomisd_cluster_fanout_seconds",
			"Whole fan-out wall time: shard partitioning through merged result."),
	}
}

// shard is one contiguous seed range of a solve job.
type shard struct {
	off int // global index of the shard's first trial
	n   int // trial count
}

// partitionTrials splits trials into at most want contiguous near-equal
// shards, in ascending trial order (so concatenating shard rows in shard
// order yields global trial order).
func partitionTrials(trials, want int) []shard {
	if want < 1 {
		want = 1
	}
	if want > trials {
		want = trials
	}
	shards := make([]shard, 0, want)
	base, rem := trials/want, trials%want
	off := 0
	for i := 0; i < want; i++ {
		n := base
		if i < rem {
			n++
		}
		shards = append(shards, shard{off: off, n: n})
		off += n
	}
	return shards
}

// fatalError marks a shard failure stealing cannot fix: the shard job ran
// and failed, or every worker rejects the request. It aborts the fan-out.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

func fatal(err error) error { return &fatalError{err: err} }

func isFatal(err error) bool {
	var f *fatalError
	return errors.As(err, &f)
}

// Executor returns the server.ExecuteFunc to install as
// server.Options.Executor. Repeat-trial solve jobs fan out across the
// workers; everything else — experiment jobs, single-trial solves — runs
// through the fallback on the coordinator itself. A fan-out that fails
// for infrastructure reasons (every worker dead) also falls back to local
// execution: the coordinator degrades to a single node instead of failing
// the job.
func (c *Coordinator) Executor() server.ExecuteFunc {
	return func(ctx context.Context, req server.JobRequest) (*server.JobResult, error) {
		if req.Kind != server.KindSolve || req.Trials < 2 {
			c.noteLocal()
			return c.opts.Fallback(ctx, req)
		}
		res, err := c.runSolve(ctx, req)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil || isFatal(err) {
			return nil, err
		}
		if c.opts.DisableFallback {
			return nil, fmt.Errorf("cluster: fan-out failed and degradation is disabled: %w", err)
		}
		c.opts.Logger.Warn("cluster: fan-out failed, running job locally", "error", err.Error())
		server.EmitEvent(ctx, server.ShardEvent{
			Ev: "shard", Worker: "coordinator", Shard: -1,
			State: "degraded", Error: err.Error(),
		})
		c.noteLocal()
		return c.opts.Fallback(ctx, req)
	}
}

// runSolve fans one solve job out: partition into seed-range shards, feed
// a shared shard queue drained by one goroutine per worker, steal shards
// back from workers that die or stall, and merge the per-trial rows into
// a result bit-identical to a single-node run.
func (c *Coordinator) runSolve(ctx context.Context, req server.JobRequest) (*server.JobResult, error) {
	start := time.Now()
	ctx, sp := trace.Start(ctx, "cluster.fanout",
		trace.A("trials", req.Trials), trace.A("workers", len(c.clients)))
	defer sp.End()

	shards := partitionTrials(req.Trials, len(c.clients)*c.opts.ShardsPerWorker)
	sp.SetAttr("shards", len(shards))
	c.noteFanout()

	// The queue holds shard indices; a shard is either queued or owned by
	// exactly one worker goroutine, so capacity len(shards) means requeues
	// (steals) never block.
	queue := make(chan int, len(shards))
	for i := range shards {
		queue <- i
	}
	results := make([][]server.TrialRow, len(shards))

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(len(shards))
	errc := make(chan error, 1)
	abort := func(err error) {
		select {
		case errc <- err:
			cancel()
		default:
		}
	}
	var live atomic.Int64
	live.Store(int64(len(c.clients)))

	for wi := range c.clients {
		go func(wi int) {
			cl := c.clients[wi]
			for {
				var si int
				select {
				case <-fctx.Done():
					return
				case si = <-queue:
				}
				rows, err := c.runShard(fctx, cl, req, si, shards[si])
				if err == nil {
					results[si] = rows
					c.noteShardDone(wi)
					wg.Done()
					continue
				}
				if fctx.Err() != nil {
					return
				}
				if isFatal(err) {
					abort(err)
					return
				}
				// Worker-level failure: put the shard back for the others to
				// steal and retire this worker for the rest of the fan-out.
				// The stolen event goes out before the requeue so the stream
				// never shows the shard running elsewhere before its theft.
				server.EmitEvent(fctx, server.ShardEvent{
					Ev: "shard", Worker: cl.Base(), Shard: si,
					TrialOffset: shards[si].off, Trials: shards[si].n,
					State: "stolen", Error: err.Error(),
				})
				queue <- si
				c.noteWorkerDead(wi, err)
				c.opts.Logger.Warn("cluster: stealing shard from worker",
					"worker", cl.Base(), "trialOffset", shards[si].off,
					"trials", shards[si].n, "error", err.Error())
				if live.Add(-1) == 0 {
					abort(fmt.Errorf("cluster: no live workers left (last: %w)", err))
				}
				return
			}
		}(wi)
	}

	donec := make(chan struct{})
	go func() { wg.Wait(); close(donec) }()
	select {
	case <-donec:
	case err := <-errc:
		if c.met != nil {
			c.met.failures.Inc()
		}
		return nil, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	res := mergeShards(req, results)
	if c.met != nil {
		c.met.fanoutSeconds.ObserveDuration(time.Since(start))
	}
	// Pull the workers' spans for this trace now, while their rings still
	// hold them, so /debug/traces serves the connected cross-node tree
	// without waiting for an on-demand stitch. Workers end their job spans
	// just after streaming the terminal event, hence best-effort here —
	// the on-demand path (GET /debug/traces?trace=) catches stragglers.
	if tid := sp.Context().Trace; c.opts.Tracer != nil && !tid.IsZero() {
		go func() {
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			c.StitchTrace(sctx, tid.String())
		}()
	}
	return res, nil
}

// runShard runs one shard on one worker: submit (with retry/backoff),
// follow the event stream under the liveness deadline, and validate the
// returned rows. Errors are fatal when stealing cannot help (the shard
// job itself failed, the request is rejected as malformed) and plain when
// the worker looks dead or wedged. The shard's dispatch, worker-side
// progress, and completion are re-emitted on the fanned-out job's own
// event stream as attributed shard events.
func (c *Coordinator) runShard(ctx context.Context, cl *Client, req server.JobRequest, si int, sh shard) ([]server.TrialRow, error) {
	start := time.Now()
	ctx, sp := trace.Start(ctx, "cluster.shard",
		trace.A("worker", cl.Base()), trace.A("trialOffset", sh.off), trace.A("trials", sh.n))
	defer sp.End()
	if c.met != nil {
		c.met.shards.Inc()
	}

	sreq := req
	sreq.Trials = sh.n
	sreq.TrialOffset = sh.off
	sreq.Rows = true

	st, err := cl.Submit(ctx, sreq)
	if err != nil {
		var serr *StatusError
		if errors.As(err, &serr) && serr.Code >= 400 && serr.Code < 500 && serr.Code != http.StatusTooManyRequests {
			// Every worker would reject the same request the same way.
			return nil, fatal(fmt.Errorf("cluster: worker rejected shard request: %w", err))
		}
		return nil, fmt.Errorf("cluster: submit shard to %s: %w", cl.Base(), err)
	}
	jobID := st.ID
	sp.SetAttr("jobId", jobID)
	sp.SetAttr("cached", st.Cached)
	server.EmitEvent(ctx, server.ShardEvent{
		Ev: "shard", Worker: cl.Base(), Shard: si,
		TrialOffset: sh.off, Trials: sh.n,
		State: "running", TraceID: st.TraceID,
	})

	if !isTerminalState(st.State) {
		st, err = cl.WaitJobFunc(ctx, jobID, c.opts.Liveness, c.reemit(ctx, cl.Base(), si, sh))
		if err != nil {
			// The worker may be gone, but if it is merely wedged, stop it
			// from burning CPU on a shard someone else will redo.
			go func() {
				cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer ccancel()
				cl.Cancel(cctx, jobID)
			}()
			return nil, fmt.Errorf("cluster: shard on %s: %w", cl.Base(), err)
		}
	}

	switch st.State {
	case server.StateDone:
	case server.StateFailed:
		server.EmitEvent(ctx, server.ShardEvent{
			Ev: "shard", Worker: cl.Base(), Shard: si,
			TrialOffset: sh.off, Trials: sh.n,
			State: "failed", Error: st.Error,
		})
		return nil, fatal(fmt.Errorf("cluster: shard job %s failed on %s: %s", st.ID, cl.Base(), st.Error))
	default:
		// Canceled on the worker (drain, operator action): not our doing,
		// treat the worker as lost and steal the shard.
		return nil, fmt.Errorf("cluster: shard job %s on %s ended %s", st.ID, cl.Base(), st.State)
	}
	if st.Result == nil || st.Result.Solve == nil || len(st.Result.Solve.Rows) != sh.n {
		return nil, fatal(fmt.Errorf("cluster: shard job %s on %s returned %d rows, want %d — worker schema mismatch?",
			st.ID, cl.Base(), shardRowCount(st), sh.n))
	}
	if c.met != nil {
		c.met.shardSeconds.ObserveDuration(time.Since(start))
	}
	server.EmitEvent(ctx, server.ShardEvent{
		Ev: "shard", Worker: cl.Base(), Shard: si,
		TrialOffset: sh.off, Trials: sh.n, State: "done",
	})
	return st.Result.Solve.Rows, nil
}

// reemit adapts a worker shard's raw event-stream lines into attributed
// shard events on the fanned-out job's stream. Only worker progress lines
// are re-emitted; heartbeats are liveness plumbing, state/perf lines are
// covered by the coordinator's own running/done/failed/stolen events.
func (c *Coordinator) reemit(ctx context.Context, worker string, si int, sh shard) func(line []byte) {
	return func(line []byte) {
		var ev struct {
			Ev    string `json:"ev"`
			Stage string `json:"stage"`
			Done  int    `json:"done"`
			Total int    `json:"total"`
		}
		if json.Unmarshal(line, &ev) != nil || ev.Ev != "progress" {
			return
		}
		server.EmitEvent(ctx, server.ShardEvent{
			Ev: "shard", Worker: worker, Shard: si,
			TrialOffset: sh.off, Trials: sh.n,
			Stage: ev.Stage, Done: ev.Done, Total: ev.Total,
		})
	}
}

func shardRowCount(st *server.JobStatus) int {
	if st.Result == nil || st.Result.Solve == nil {
		return 0
	}
	return len(st.Result.Solve.Rows)
}

func isTerminalState(s string) bool {
	return s == server.StateDone || s == server.StateFailed || s == server.StateCanceled
}

// mergeShards rebuilds the single-node result from shard rows. Shards are
// contiguous ascending seed ranges, so concatenating their rows in shard
// order is global trial order; summarizing each metric over those rows
// applies the exact float operations, in the exact order, that
// server.ExecuteLocal would — the merged result is bit-identical. Rows are
// kept only when the client asked for them, so the response body matches
// a single-node run byte for byte.
func mergeShards(req server.JobRequest, results [][]server.TrialRow) *server.JobResult {
	rows := make([]server.TrialRow, 0, req.Trials)
	for _, rs := range results {
		rows = append(rows, rs...)
	}
	nameSet := make(map[string]struct{})
	for _, r := range rows {
		for name := range r.Metrics {
			nameSet[name] = struct{}{}
		}
	}
	names := make([]string, 0, len(nameSet))
	for name := range nameSet {
		names = append(names, name)
	}
	sort.Strings(names)

	engine, _ := server.ResolveEngine(req)
	sr := &server.SolveResult{
		Algorithm: req.Algorithm,
		Family:    req.Family,
		N:         req.N,
		Trials:    req.Trials,
		Faults:    req.Faults,
		Engine:    engine,
		Metrics:   make(map[string]stats.Summary),
	}
	vals := make([]float64, 0, len(rows))
	for _, name := range names {
		vals = vals[:0]
		for _, r := range rows {
			if v, ok := r.Metrics[name]; ok {
				vals = append(vals, v)
			}
		}
		// Mirror trialRows: a metric absent from some trial never makes it
		// into rows on a single node, so skip partial metrics here too.
		if len(vals) != len(rows) {
			continue
		}
		sr.Metrics[name] = stats.Summarize(vals)
	}
	if req.Rows {
		sr.Rows = rows
	}
	return &server.JobResult{Solve: sr}
}

// Status is the response of GET /v1/cluster: the coordinator's view of
// its workers and cumulative fan-out counters.
type Status struct {
	Schema          string         `json:"schema"`
	ShardsPerWorker int            `json:"shardsPerWorker"`
	LivenessMs      float64        `json:"livenessMs"`
	Fanouts         uint64         `json:"fanouts"`
	LocalExecutions uint64         `json:"localExecutions"`
	ShardsDone      uint64         `json:"shardsDone"`
	ShardsStolen    uint64         `json:"shardsStolen"`
	Workers         []WorkerStatus `json:"workers"`
	// Federation is the telemetry-federation view (per-worker pull state
	// plus the merged cluster snapshot); absent when polling is disabled.
	Federation *FederationStatus `json:"federation,omitempty"`
}

// WorkerStatus is one worker's entry in Status.
type WorkerStatus struct {
	URL string `json:"url"`
	// Live is the worker's standing as of its most recent shard: false
	// after a death or stall, true again once a later shard succeeds.
	Live       bool   `json:"live"`
	ShardsDone uint64 `json:"shardsDone"`
	LastError  string `json:"lastError,omitempty"`
}

// Status snapshots the coordinator state for GET /v1/cluster.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		Schema:          server.SchemaVersion,
		ShardsPerWorker: c.opts.ShardsPerWorker,
		LivenessMs:      float64(c.opts.Liveness) / float64(time.Millisecond),
		Fanouts:         c.fanouts,
		LocalExecutions: c.locals,
		ShardsDone:      c.shards,
		ShardsStolen:    c.stolen,
	}
	for _, w := range c.workers {
		s.Workers = append(s.Workers, WorkerStatus{
			URL: w.url, Live: w.live, ShardsDone: w.shardsDone, LastError: w.lastErr,
		})
	}
	s.Federation = c.federationStatus()
	return s
}

func (c *Coordinator) noteFanout() {
	c.mu.Lock()
	c.fanouts++
	c.mu.Unlock()
	if c.met != nil {
		c.met.fanouts.Inc()
	}
}

func (c *Coordinator) noteLocal() {
	c.mu.Lock()
	c.locals++
	c.mu.Unlock()
	if c.met != nil {
		c.met.locals.Inc()
	}
}

func (c *Coordinator) noteShardDone(wi int) {
	c.mu.Lock()
	c.workers[wi].live = true
	c.workers[wi].shardsDone++
	c.workers[wi].lastErr = ""
	c.shards++
	liveCount := c.liveCountLocked()
	c.mu.Unlock()
	if c.met != nil {
		c.met.shardsDone.Inc()
		c.met.workersLive.Set(liveCount)
	}
}

func (c *Coordinator) noteWorkerDead(wi int, err error) {
	c.mu.Lock()
	c.workers[wi].live = false
	c.workers[wi].lastErr = err.Error()
	c.stolen++
	liveCount := c.liveCountLocked()
	c.mu.Unlock()
	if c.met != nil {
		c.met.stolen.Inc()
		c.met.workersLive.Set(liveCount)
	}
}

func (c *Coordinator) liveCountLocked() int64 {
	var n int64
	for _, w := range c.workers {
		if w.live {
			n++
		}
	}
	return n
}
