package radio

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

// cancelAt is an observer that cancels its run's context once the run
// reaches the given round.
type cancelAt struct {
	round  uint64
	cancel context.CancelFunc
}

func (c cancelAt) ObserveRound(s *RoundStats) {
	if s.Round >= c.round {
		c.cancel()
	}
}

func (cancelAt) ObserveHalt(int, int64, uint64, uint64) {}

// TestRunLeavesNoGoroutines checks that no node goroutine outlives its
// run, on both engines, whether the run finishes cleanly, loses nodes to
// crash-stop or crash-restart faults, hits its round cap, or is aborted by
// its context.
func TestRunLeavesNoGoroutines(t *testing.T) {
	g := graph.GNP(96, 0.08, rng.New(5))
	spin := func(env *Env) int64 {
		for {
			env.Listen()
		}
	}
	cases := []struct {
		name    string
		cfg     Config
		program Program
		wantErr error
	}{
		{"clean", Config{Model: ModelCD, Seed: 1}, decayProgram, nil},
		{"crash-stop", Config{Model: ModelCD, Seed: 2,
			Faults: faults.Profile{Crash: faults.Crash{Rate: 0.05}}}, decayProgram, nil},
		{"crash-restart", Config{Model: ModelCD, Seed: 3,
			Faults: faults.Profile{Crash: faults.Crash{Rate: 0.05, RestartAfter: 3, MaxRestarts: 2}}}, decayProgram, nil},
		{"max-rounds", Config{Model: ModelCD, Seed: 4, MaxRounds: 40}, spin, ErrMaxRounds},
		{"ctx-abort", Config{Model: ModelCD, Seed: 5}, spin, ErrAborted},
	}
	engines := map[string]func(*graph.Graph, Config, Program) (*Result, error){
		"sched":     Run,
		"reference": runReference,
	}
	for ename, run := range engines {
		for _, tc := range cases {
			t.Run(ename+"/"+tc.name, func(t *testing.T) {
				cfg := tc.cfg
				if tc.wantErr == ErrAborted {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					cfg.Ctx = ctx
					cfg.Observer = cancelAt{round: 20, cancel: cancel}
				}
				before := runtime.NumGoroutine()
				res, err := run(g, cfg, tc.program)
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if f := cfg.Faults.Crash; f.Rate > 0 {
					if res.Faults.Crashes == 0 || (f.RestartAfter > 0) != (res.Faults.Restarts > 0) {
						t.Fatalf("profile exercised too little: %+v", *res.Faults)
					}
				}
				// A stopped life's goroutine closes its intent channel as
				// its last act, so the count settles almost at once.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
