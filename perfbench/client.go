package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"radiomis/internal/server"
	"radiomis/internal/trace"
)

// client is one closed-loop radiomisd caller. With a tracer, each request
// is a trace: a "request" root span with one span per HTTP call, whose
// traceparent header parents the daemon's own spans under it.
type client struct {
	base string
	http *http.Client
	tr   *trace.Tracer
}

// outcome is what one request produced, as the client saw it.
type outcome struct {
	req     request
	latency time.Duration
	failure string // empty when the request succeeded and passed the gate
	// rejected marks a 429 (queue full) answer.
	rejected bool
	// cached marks an answer served from a daemon cache.
	cached bool
	// executed jobs carry the daemon's queue wait and run time.
	executed bool
	queueMs  float64
	runMs    float64
	bytes    int
	trace    trace.TraceID
	digest   string   // result fingerprint, for requests in the digest prefix
	labels   []uint16 // schedule plans: each vertex's batch, for the deferred check
}

// digestPrefix is how many requests of each client's stream the result
// digest and the traced replay cover; every run completes at least these.
const digestPrefix = 8

func (c *client) span(parent *trace.Span, name string) *trace.Span {
	if c.tr == nil {
		return nil
	}
	return c.tr.StartSpan(parent.Context(), name, time.Now())
}

// do sends one request and waits for its result. The latency clock stops
// once the result is decoded; the correctness gate runs after it.
func (c *client) do(ctx context.Context, req request) outcome {
	out := outcome{req: req}
	root := c.span(nil, "request")
	out.trace = root.Context().Trace
	start := time.Now()
	var st *server.JobStatus
	var plan *server.ScheduleResult
	var err error
	if req.sched != nil {
		plan, err = c.schedule(ctx, root, req.sched, &out)
	} else {
		st, err = c.solve(ctx, root, req.solve, &out)
	}
	out.latency = time.Since(start)
	root.End()

	switch {
	case err != nil:
	case plan != nil:
		out.cached = plan.Cached
		out.labels, err = planLabels(req.sched.N, plan.Batches)
		if err == nil && req.index < digestPrefix {
			out.digest = planDigest(plan.Batches)
		}
	default:
		out.cached = st.Cached
		if st.RunMs != nil && st.QueueWaitMs != nil && !st.Cached {
			out.executed, out.queueMs, out.runMs = true, *st.QueueWaitMs, *st.RunMs
		}
		err = checkSolve(st, req.wantEngine)
		if err == nil && req.index < digestPrefix {
			out.digest = solveDigest(st.Result.Solve)
		}
	}
	if err != nil {
		out.failure = err.Error()
	}
	return out
}

func (c *client) solve(ctx context.Context, root *trace.Span, req *server.JobRequest, out *outcome) (*server.JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	b, err := c.call(ctx, root, "client.submit", http.MethodPost, "/v1/jobs", body, out)
	if err != nil {
		return nil, err
	}
	st := new(server.JobStatus)
	if err := json.Unmarshal(b, st); err != nil {
		return nil, fmt.Errorf("decode submit response: %w", err)
	}
	if st.State == server.StateDone && st.Result != nil {
		return st, nil // served from the cache
	}
	if err := c.follow(ctx, root, st.ID, out); err != nil {
		return nil, err
	}
	if b, err = c.call(ctx, root, "client.result", http.MethodGet, "/v1/jobs/"+st.ID, nil, out); err != nil {
		return nil, err
	}
	st = new(server.JobStatus)
	if err := json.Unmarshal(b, st); err != nil {
		return nil, fmt.Errorf("decode job status: %w", err)
	}
	return st, nil
}

func (c *client) schedule(ctx context.Context, root *trace.Span, req *server.ScheduleRequest, out *outcome) (*server.ScheduleResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	b, err := c.call(ctx, root, "client.submit", http.MethodPost, "/v1/schedule", body, out)
	if err != nil {
		return nil, err
	}
	res := new(server.ScheduleResult)
	if err := json.Unmarshal(b, res); err != nil {
		return nil, fmt.Errorf("decode schedule response: %w", err)
	}
	return res, nil
}

// follow reads a job's event stream up to its terminal state line.
func (c *client) follow(ctx context.Context, root *trace.Span, id string, out *outcome) error {
	sp := c.span(root, "client.events")
	defer sp.End()
	resp, err := c.send(ctx, sp, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.statusError(resp, out)
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		out.bytes += len(line)
		if len(line) > 0 {
			var ev struct{ Ev, State string }
			if json.Unmarshal(line, &ev) == nil && ev.Ev == "state" &&
				(ev.State == server.StateDone || ev.State == server.StateFailed || ev.State == server.StateCanceled) {
				io.Copy(io.Discard, rd) // drain so the connection is reused
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("job %s event stream ended before a terminal state: %v", id, err)
		}
	}
}

// call makes one HTTP call in its own span and returns the 2xx body.
func (c *client) call(ctx context.Context, root *trace.Span, name, method, path string, body []byte, out *outcome) ([]byte, error) {
	sp := c.span(root, name)
	defer sp.End()
	resp, err := c.send(ctx, sp, method, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, c.statusError(resp, out)
	}
	b, err := io.ReadAll(resp.Body)
	out.bytes += len(b)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return b, nil
}

func (c *client) send(ctx context.Context, sp *trace.Span, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if sp != nil {
		hreq.Header.Set(trace.TraceparentHeader, sp.Context().Traceparent())
	}
	return c.http.Do(hreq)
}

func (c *client) statusError(resp *http.Response, out *outcome) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status alone is the failure
	out.bytes += len(b)
	if resp.StatusCode == http.StatusTooManyRequests {
		out.rejected = true
	}
	return fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, bytes.TrimSpace(b))
}

// phase is one closed-loop measurement window.
type phase struct {
	outcomes []outcome
	elapsed  time.Duration
	cpu      time.Duration
	rss      []float64 // resident set samples (MiB), sorted
}

// runClosedLoop runs one client goroutine per stream: each sends its next
// request as soon as the previous one completes, until dur has passed and
// it has sent at least digestPrefix requests. Streams keep their position
// across calls.
func runClosedLoop(ctx context.Context, c *client, w *workload, streams []*stream, dur time.Duration) *phase {
	per := make([][]outcome, len(streams))
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s *stream) {
			defer wg.Done()
			for time.Now().Before(deadline) || s.drawn < digestPrefix {
				if ctx.Err() != nil {
					return
				}
				per[i] = append(per[i], c.do(ctx, s.next(w)))
			}
		}(i, s)
	}
	stop := make(chan struct{})
	rss := make(chan []float64, 1)
	go func() { rss <- sampleRSS(50*time.Millisecond, stop) }()
	wg.Wait()
	p := &phase{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	close(stop)
	p.rss = <-rss
	sort.Float64s(p.rss)
	for _, o := range per {
		p.outcomes = append(p.outcomes, o...)
	}
	return p
}
