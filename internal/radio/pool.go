package radio

import (
	"context"
	"sync"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// Pool is a reusable backend for the round scheduler: all per-run scratch
// (round buffers, transmitter bitset, observer scratch, lockstep lane
// state) and a one-entry CSR adjacency cache. A single Run pays the
// pool's costs — building the CSR snapshot, growing buffers — once;
// installing a Pool on the run context lets a batch of runs
// (harness.Repeat / Sweep trials, the radiomisd job loop) amortize them
// across every trial on the same graph.
//
// Use it as:
//
//	ctx := radio.WithPool(context.Background(), radio.NewPool())
//	// every radio.Run whose Config.Ctx descends from ctx uses the pool
//
// A Pool serializes the runs it backs (concurrent runs on one Pool simply
// queue on its mutex); use one Pool per concurrently-running worker. Pools
// never change simulation results: a run behaves bit-identically with and
// without one.
type Pool struct {
	mu sync.Mutex
	s  sched    // reused scheduler scratch
	lk lockstep // reused lockstep-engine scratch (see lockstep.go)

	// One-entry CSR cache. Trials in a batch overwhelmingly share one
	// graph, so a single entry captures nearly all reuse; n and m guard
	// against a different graph reusing a freed *Graph's address.
	csrFor *graph.Graph
	csrN   int
	csrM   int
	csr    *graph.CSR
}

// NewPool returns an empty Pool; its buffers warm up on first use.
func NewPool() *Pool { return &Pool{} }

type poolKey struct{}

// WithPool returns a context that carries pool; any radio.Run whose
// Config.Ctx descends from it executes on the pool's buffers.
func WithPool(ctx context.Context, pool *Pool) context.Context {
	return context.WithValue(ctx, poolKey{}, pool)
}

// poolFrom extracts the Pool installed by WithPool, if any.
func poolFrom(ctx context.Context) *Pool {
	if ctx == nil {
		return nil
	}
	pool, _ := ctx.Value(poolKey{}).(*Pool)
	return pool
}

// snapshot returns the CSR adjacency of g, reusing the cached snapshot when
// the batch stays on one graph, and reports whether the cache served it.
func (p *Pool) snapshot(g *graph.Graph) (*graph.CSR, bool) {
	if p.csrFor == g && p.csrN == g.N() && p.csrM == g.M() {
		return p.csr, true
	}
	p.csrFor, p.csrN, p.csrM = g, g.N(), g.M()
	p.csr = graph.BuildCSR(g)
	return p.csr, false
}

// coordinate runs one scheduled run on the pool's scratch.
func (p *Pool) coordinate(g *graph.Graph, cfg *Config, inj *faults.Injector, maxRounds uint64, ns *nodes, wakes []uint64, res *Result) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	csr, cached := p.snapshot(g)
	p.s.bind(csr, cfg, inj, maxRounds, ns, wakes, res)
	if cfg.Perf != nil {
		// After bind's reset: mark the run as pool-backed. bind counted
		// any buffer growth the pool's warm scratch could not absorb.
		cfg.Perf.PoolHit = true
		cfg.Perf.CSRReused = cached
	}
	return p.s.loop()
}
