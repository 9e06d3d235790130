package mis

import (
	"context"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/radio"
)

// BenchmarkRunManyLockstep measures the MIS layer's lockstep path on the
// shape of one daemon solve job on the grid family: the real cd lane
// program on the 64×64 grid (n=4096), 64 seeds per op — one 64-lane
// RunLockstep batch — on a warm Pool. trials/s is the throughput;
// rounds/op (mean rounds per trial) is deterministic for a given b.N, so
// a change in it means simulation behavior changed, not just timing.
func BenchmarkRunManyLockstep(b *testing.B) {
	g := graph.Grid2D(64, 64)
	p := ParamsDefault(g.N(), g.MaxDegree())
	ctx := radio.WithPool(context.Background(), radio.NewPool())
	seeds := make([]uint64, radio.MaxLanes)
	var rounds uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := range seeds {
			seeds[l] = uint64(i*radio.MaxLanes + l)
		}
		results, err := RunMany("cd", g, p, ManyOpts{Seeds: seeds, Ctx: ctx, Engine: EngineLockstep})
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			rounds += res.Rounds
		}
	}
	trials := float64(b.N) * radio.MaxLanes
	b.ReportMetric(float64(rounds)/trials, "rounds/op")
	b.ReportMetric(trials/max(b.Elapsed().Seconds(), 1e-9), "trials/s")
}
