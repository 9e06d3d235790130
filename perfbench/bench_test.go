package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"radiomis/internal/graph"
	"radiomis/internal/server"
	"radiomis/internal/stats"
	"radiomis/internal/trace"
)

func drawN(w *workload, seed uint64, n int) []request {
	var out []request
	for c := 0; c < clients; c++ {
		s := newStream(seed, c)
		for i := 0; i < n; i++ {
			out = append(out, s.next(w))
		}
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b := drawN(w, 42, 50), drawN(w, 42, 50)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 drew two different streams", w.name)
		}
		if reflect.DeepEqual(a, drawN(w, 43, 50)) {
			t.Errorf("%s: seeds 42 and 43 drew the same stream", w.name)
		}
	}
	scalar, _ := lookupWorkload("solve-gnp-scalar")
	clustered, _ := lookupWorkload("solve-gnp-cluster")
	if !reflect.DeepEqual(drawN(scalar, 7, 20), drawN(clustered, 7, 20)) {
		t.Error("the cluster workload does not send the scalar workload's stream")
	}
}

func TestScalarMixIsThreeToOne(t *testing.T) {
	w, _ := lookupWorkload("solve-gnp-scalar")
	nocd := 0
	reqs := drawN(w, 1, 40)
	for _, r := range reqs {
		if r.solve.Algorithm == "nocd" {
			nocd++
		}
	}
	if nocd*4 != len(reqs) {
		t.Errorf("%d of %d jobs are nocd, want 1 in 4", nocd, len(reqs))
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 50); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if got := percentile(sorted, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
}

// spanTree builds finished spans at offsets (in ms) from a common epoch.
type spanTree struct {
	tr    *trace.Tracer
	epoch time.Time
	spans []*trace.Span
}

func (st *spanTree) add(parent *trace.Span, name string, from, to int, attrs ...trace.Attr) *trace.Span {
	sp := st.tr.StartSpan(parent.Context(), name, st.epoch.Add(time.Duration(from)*time.Millisecond), attrs...)
	sp.EndAt(st.epoch.Add(time.Duration(to) * time.Millisecond))
	st.spans = append(st.spans, sp)
	return sp
}

func msOf(m map[*trace.Span]time.Duration, s *trace.Span) float64 { return ms(m[s]) }

func TestAttributeNested(t *testing.T) {
	st := &spanTree{tr: trace.NewSeeded(64, 1), epoch: time.Now()}
	a := st.add(nil, "a", 0, 100)
	b := st.add(a, "b", 10, 90)
	c := st.add(b, "c", 20, 50)
	got := attribute(a, st.spans, nil)
	for _, tc := range []struct {
		s    *trace.Span
		want float64
	}{{a, 20}, {b, 50}, {c, 30}} {
		if g := msOf(got, tc.s); g != tc.want {
			t.Errorf("self(%s) = %v ms, want %v", tc.s.Name, g, tc.want)
		}
	}
}

func TestAttributeOverlappingChildren(t *testing.T) {
	st := &spanTree{tr: trace.NewSeeded(64, 2), epoch: time.Now()}
	root := st.add(nil, "root", 0, 20)
	b := st.add(root, "b", 0, 10)
	c := st.add(root, "c", 5, 15)
	got := attribute(root, st.spans, nil)
	// The root's self time is its duration minus the union of its
	// children, not minus their sum; the overlap is shared.
	if g := msOf(got, root); g != 5 {
		t.Errorf("self(root) = %v ms, want 5", g)
	}
	if gb, gc := msOf(got, b), msOf(got, c); gb != 7.5 || gc != 7.5 {
		t.Errorf("self(b), self(c) = %v, %v ms, want 7.5, 7.5", gb, gc)
	}
}

func TestAttributeClipsAndPassive(t *testing.T) {
	st := &spanTree{tr: trace.NewSeeded(64, 3), epoch: time.Now()}
	root := st.add(nil, "request", 0, 100)
	events := st.add(root, "client.events", 0, 100)
	handler := st.add(events, "http.request", 0, 100, trace.A("path", "/v1/jobs/j1/events"))
	submit := st.add(root, "http.request", 0, 10, trace.A("path", "/v1/jobs"))
	job := st.add(submit, "job", 5, 80) // outlives its parent
	late := st.add(root, "late", 90, 130)
	got := attribute(root, st.spans, eventStream)
	if g := msOf(got, job); g != 75 {
		t.Errorf("self(job) = %v ms, want 75 (the event stream only waits for it)", g)
	}
	if g := msOf(got, handler); g != 10 {
		t.Errorf("self(events handler) = %v ms, want 10 (only while nothing else runs)", g)
	}
	if g := msOf(got, late); g != 10 {
		t.Errorf("self(late) = %v ms, want 10 (clipped to the root)", g)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != 100*time.Millisecond {
		t.Errorf("attributions sum to %v, want the root's 100ms", sum)
	}
}

func TestPlanChecks(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	for _, tc := range []struct {
		name    string
		batches [][]int
		ok      bool
	}{
		{"valid", [][]int{{0, 2}, {1, 3}}, true},
		{"vertex in two batches", [][]int{{0, 2}, {1, 2, 3}}, false},
		{"adjacent pair in one batch", [][]int{{0, 1}, {2}, {3}}, false},
		{"vertex missing", [][]int{{0, 2}, {1}}, false},
		{"vertex out of range", [][]int{{0, 2}, {1, 3, 4}}, false},
	} {
		labels, err := planLabels(g.N(), tc.batches)
		if err == nil {
			err = checkIndependent(g, labels)
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestCheckSolve(t *testing.T) {
	status := func(success float64, engine string) *server.JobStatus {
		return &server.JobStatus{ID: "j1", State: server.StateDone, Result: &server.JobResult{
			Solve: &server.SolveResult{Engine: engine, Metrics: map[string]stats.Summary{"success": {Mean: success}}},
		}}
	}
	if err := checkSolve(status(1, "scalar"), "scalar"); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	if checkSolve(status(0.9375, "scalar"), "scalar") == nil {
		t.Error("success < 1 accepted")
	}
	if checkSolve(status(1, "lockstep"), "scalar") == nil {
		t.Error("wrong engine accepted")
	}
	failed := status(1, "scalar")
	failed.State, failed.Result = server.StateFailed, nil
	if checkSolve(failed, "scalar") == nil {
		t.Error("failed job accepted")
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics)
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := run([]string{"-workload", "service-small", "-trace", "2"}, &out, &errb); code == 0 {
		t.Error("-trace 2 exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed %q", out.String())
	}
}

// TestClusterDigestEqualsScalar runs the digest prefix of both gnp
// workloads and checks that fan-out returns what one node computes.
func TestClusterDigestEqualsScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two deployments end to end")
	}
	digest := regexp.MustCompile(`digest ([0-9a-f]+) over (\d+) requests`)
	var got []string
	for _, name := range []string{"solve-gnp-scalar", "solve-gnp-cluster"} {
		w, _ := lookupWorkload(name)
		var out bytes.Buffer
		b := &bench{w: w, seed: 3, out: &out}
		res, err := b.untraced(context.Background(), time.Nanosecond)
		b.close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: %d of %d requests failed:\n%s", name, res.Failed, res.Attempted, out.String())
		}
		m := digest.FindStringSubmatch(out.String())
		if m == nil || m[2] != "16" {
			t.Fatalf("%s: no 16-request digest in output:\n%s", name, out.String())
		}
		got = append(got, m[1])
	}
	if got[0] != got[1] {
		t.Errorf("cluster digest %s differs from scalar digest %s", got[1], got[0])
	}
}
