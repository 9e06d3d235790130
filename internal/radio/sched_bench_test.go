package radio

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"radiomis/internal/graph"
)

// benchProgram is the benchmark workload: the awake-action profile of the
// paper's MIS algorithms — phases of decay-style competition (bursts of
// randomized transmissions with halving persistence), a listening check
// per phase, and sleep between phases — without the algorithmic logic, so
// the benchmark isolates engine cost rather than solver cost.
func benchProgram(env *Env) int64 {
	heard := int64(0)
	for phase := 0; phase < 10; phase++ {
		env.Phase("compete")
		for j := uint(0); j < 8; j++ {
			if env.Rand().Int63()&int64(1<<j-1) == 0 {
				env.TransmitBit()
			} else {
				env.Sleep(1)
			}
		}
		env.Phase("check")
		if env.Listen().Kind != Silence {
			heard++
		}
		env.Sleep(uint64(env.Rand().Intn(4) + 1))
	}
	return heard
}

// BenchmarkRun measures end-to-end trial throughput — complete Run calls
// per second — on G(n, p=8/n) at two sizes, comparing four
// configurations:
//
//	reference  the reference engine (reference_test.go): the heap-only
//	           round loop over the same node lives and channels as Run
//	sched      the round scheduler, standalone (per-run CSR snapshot and
//	           scratch)
//	pooled     the scheduler behind a Pool, as harness batches run it
//	           (buffers and CSR snapshot amortized across trials)
//	perf       the pooled configuration with RunPerf telemetry attached —
//	           its gap to "pooled" is the telemetry overhead (no per-round
//	           allocations)
//
// All four produce bit-identical Results (sched_parity_test.go,
// perf_test.go). The reference shares Run's channel discipline, so its
// time/op measures only the cost of its round loop, not a historical
// synchronization cost. The deterministic rounds/op metric is the drift
// guard: CI runs this benchmark and any disagreement in rounds/op between
// the configurations means simulation behavior changed, not just timing;
// CI also compares the pooled vs perf allocs/op (scripts/benchallocs.py)
// so telemetry can never quietly start allocating.
func BenchmarkRun(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g := graph.GNP(n, 8.0/float64(n), rand.New(rand.NewSource(4096)))
		for _, engine := range []string{"reference", "sched", "pooled", "perf"} {
			b.Run(fmt.Sprintf("%s/gnp/n=%d", engine, n), func(b *testing.B) {
				ctx := context.Background()
				if engine == "pooled" || engine == "perf" {
					pool := NewPool()
					ctx = WithPool(ctx, pool)
				}
				var perf *RunPerf
				if engine == "perf" {
					perf = &RunPerf{}
				}
				var rounds uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg := Config{Model: ModelCD, Seed: uint64(i), Ctx: ctx, Perf: perf}
					var (
						res *Result
						err error
					)
					if engine == "reference" {
						res, err = runReference(g, cfg, benchProgram)
					} else {
						res, err = Run(g, cfg, benchProgram)
					}
					if err != nil {
						b.Fatal(err)
					}
					rounds += res.Rounds
				}
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
				b.ReportMetric(float64(b.N)/max(b.Elapsed().Seconds(), 1e-9), "trials/s")
			})
		}
	}
}
