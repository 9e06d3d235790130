package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"radiomis/internal/graph"
	"radiomis/internal/server"
)

// checkSolve is the correctness gate for a finished solve job: it must be
// done, every trial must have produced a valid MIS, and it must have run
// on the engine the workload expects.
func checkSolve(st *server.JobStatus, wantEngine string) error {
	if st.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Result == nil || st.Result.Solve == nil {
		return fmt.Errorf("job %s: done without a solve result", st.ID)
	}
	sr := st.Result.Solve
	if succ, ok := sr.Metrics["success"]; !ok || succ.Mean != 1 {
		return fmt.Errorf("job %s: success mean %v, want 1", st.ID, sr.Metrics["success"].Mean)
	}
	if sr.Engine != wantEngine {
		return fmt.Errorf("job %s: ran on engine %q, want %q", st.ID, sr.Engine, wantEngine)
	}
	return nil
}

// planLabels checks that batches partition [0, n) and returns each
// vertex's batch index.
func planLabels(n int, batches [][]int) ([]uint16, error) {
	if len(batches) >= 1<<16-1 {
		return nil, fmt.Errorf("plan has %d batches", len(batches))
	}
	labels := make([]uint16, n)
	seen := 0
	for b, batch := range batches {
		for _, v := range batch {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("batch %d holds vertex %d outside [0,%d)", b, v, n)
			}
			if labels[v] != 0 {
				return nil, fmt.Errorf("vertex %d is in batches %d and %d", v, labels[v]-1, b)
			}
			labels[v] = uint16(b + 1)
			seen++
		}
	}
	if seen != n {
		return nil, fmt.Errorf("plan covers %d of %d vertices", seen, n)
	}
	for v := range labels {
		labels[v]--
	}
	return labels, nil
}

// checkIndependent checks that no edge of g joins two vertices of one
// batch.
func checkIndependent(g *graph.Graph, labels []uint16) error {
	if g.N() != len(labels) {
		return fmt.Errorf("plan labels %d vertices, graph has %d", len(labels), g.N())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && labels[u] == labels[v] {
				return fmt.Errorf("adjacent vertices %d and %d share batch %d", u, v, labels[u])
			}
		}
	}
	return nil
}

// solveDigest fingerprints a solve result's aggregate metrics and engine.
// encoding/json sorts map keys and prints floats exactly, so equal
// results give equal digests however they reached the client.
func solveDigest(sr *server.SolveResult) string {
	b, _ := json.Marshal(struct { // maps of plain floats always marshal
		Engine  string
		Metrics any
	}{sr.Engine, sr.Metrics})
	return hashHex(b)
}

func planDigest(batches [][]int) string {
	b, _ := json.Marshal(batches) // [][]int always marshals
	return hashHex(b)
}

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// digestEntry is one request's contribution to a run's result digest.
type digestEntry struct {
	seed   uint64
	kind   string
	digest string
}

// runDigest combines entries ordered by request seed, so it does not
// depend on which client sent what or in which order requests finished.
func runDigest(entries []digestEntry) string {
	sorted := append([]digestEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].seed != sorted[j].seed {
			return sorted[i].seed < sorted[j].seed
		}
		return sorted[i].kind < sorted[j].kind
	})
	h := sha256.New()
	for _, e := range sorted {
		fmt.Fprintf(h, "%d %s %s\n", e.seed, e.kind, e.digest)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
