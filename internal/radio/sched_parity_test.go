package radio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// This file holds the scheduler's golden parity tests: every (graph,
// config, program) here runs on both the scheduler (sched.go, with and
// without a Pool) and the reference engine (reference_test.go), and the
// two must agree bit-for-bit — same Result, same observer event stream,
// same error. This is the enforcement mechanism behind the engine's
// contract that its round loop changes throughput only.

// parityEvent is one deep-copied observer callback, in delivery order.
type parityEvent struct {
	kind  string // "round" or "halt"
	stats RoundStats
	id    int
	out   int64
	eng   uint64
	round uint64
}

// parityObserver deep-copies every callback so streams from two runs
// can be compared after the fact.
type parityObserver struct {
	events []parityEvent
}

func (o *parityObserver) ObserveRound(s *RoundStats) {
	cp := *s
	cp.Transmitters = append([]NodeTx(nil), s.Transmitters...)
	cp.Listeners = append([]NodeRx(nil), s.Listeners...)
	cp.Crashed = append([]int(nil), s.Crashed...)
	o.events = append(o.events, parityEvent{kind: "round", stats: cp})
}

func (o *parityObserver) ObserveHalt(id int, output int64, energy, round uint64) {
	o.events = append(o.events, parityEvent{kind: "halt", id: id, out: output, eng: energy, round: round})
}

// decayProgram is the workhorse parity program: a decay-style contention
// loop exercising randomized transmit/listen interleavings, sleeps,
// phases, round-dependent behavior, and staggered halts.
func decayProgram(env *Env) int64 {
	env.Phase("decay")
	undecided := true
	var heard uint64
	for attempt := 0; undecided && attempt < 40; attempt++ {
		if env.Rand().Intn(3) == 0 {
			env.Transmit(uint64(env.ID()) + 1)
			if env.Rand().Intn(4) == 0 {
				undecided = false
			}
		} else {
			r := env.Listen()
			if r.Kind == MessageKind {
				heard = r.Payload
				undecided = false
			}
		}
		if env.Rand().Intn(5) == 0 {
			env.Phase("backoff")
			env.Sleep(uint64(env.Rand().Intn(3) + 1))
			env.Phase("decay")
		}
	}
	return int64(heard)
}

// beepProgram exercises the beeping model with unary payloads only.
func beepProgram(env *Env) int64 {
	beeps := int64(0)
	for i := 0; i < 25; i++ {
		if env.Rand().Intn(2) == 0 {
			env.TransmitBit()
		} else if env.Listen().Kind == BeepKind {
			beeps++
		}
	}
	return beeps
}

// sleepyProgram spends most rounds asleep so the due sets are sparse and
// rounds frequently have no awake node at all (exercising the heap path
// and the skip-empty-rounds accounting).
func sleepyProgram(env *Env) int64 {
	for i := 0; i < 10; i++ {
		env.Sleep(uint64(env.Rand().Intn(7) + 1))
		if env.ID()%3 == 0 {
			env.Transmit(7)
		} else {
			env.Listen()
		}
	}
	return int64(env.Energy())
}

func parityGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	return map[string]*graph.Graph{
		"single":  graph.New(1),
		"pair":    graph.Complete(2),
		"star65":  graph.Star(65), // crosses the 64-bit word boundary
		"cycle97": graph.Cycle(97),
		"gnp200":  graph.GNP(200, 4.0/200, r),
		"empty50": graph.Empty(50),
	}
}

// runBoth executes cfg/program on the reference engine and on the
// scheduler, standalone and through a Pool, and requires bit-identical
// results, errors, and observer streams everywhere.
func runBoth(t *testing.T, g *graph.Graph, cfg Config, program Program) {
	t.Helper()

	refObs := &parityObserver{}
	refCfg := cfg
	refCfg.Observer = refObs
	wantRes, wantErr := runReference(g, refCfg, program)

	check := func(t *testing.T, label string, res *Result, err error, obs *parityObserver) {
		t.Helper()
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: error = %v, reference = %v", label, err, wantErr)
		}
		if err != nil {
			return // errored runs leave the Result unspecified
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("%s: Result diverges from reference\n got: %+v\nwant: %+v", label, res, wantRes)
		}
		if !reflect.DeepEqual(obs.events, refObs.events) {
			if len(obs.events) != len(refObs.events) {
				t.Fatalf("%s: observer saw %d events, reference %d", label, len(obs.events), len(refObs.events))
			}
			for i := range obs.events {
				if !reflect.DeepEqual(obs.events[i], refObs.events[i]) {
					t.Fatalf("%s: observer event %d diverges\n got: %+v\nwant: %+v", label, i, obs.events[i], refObs.events[i])
				}
			}
		}
	}

	obs := &parityObserver{}
	c := cfg
	c.Observer = obs
	res, err := Run(g, c, program)
	check(t, "standalone", res, err, obs)

	// Through a Pool: twice on the same pool, so the second run exercises
	// reused scratch and the CSR cache.
	pool := NewPool()
	base := cfg.Ctx
	if base == nil {
		base = context.Background()
	}
	for trial := 0; trial < 2; trial++ {
		obs := &parityObserver{}
		c := cfg
		c.Observer = obs
		c.Ctx = WithPool(base, pool)
		res, err := Run(g, c, program)
		check(t, fmt.Sprintf("pool trial=%d", trial), res, err, obs)
	}
}

func TestSchedulerParityClean(t *testing.T) {
	programs := map[string]Program{
		"decay":  decayProgram,
		"sleepy": sleepyProgram,
	}
	for gname, g := range parityGraphs(t) {
		for pname, program := range programs {
			for _, model := range []Model{ModelCD, ModelNoCD} {
				name := fmt.Sprintf("%s/%s/%s", gname, pname, model)
				t.Run(name, func(t *testing.T) {
					runBoth(t, g, Config{Model: model, Seed: 0xfeed + uint64(len(name))}, program)
				})
			}
		}
		t.Run(gname+"/beep", func(t *testing.T) {
			runBoth(t, g, Config{Model: ModelBeep, Seed: 0xbee9, UnaryOnly: true}, beepProgram)
		})
	}
}

func TestSchedulerParityWakeRound(t *testing.T) {
	g := graph.Cycle(130)
	wakes := make([]uint64, g.N())
	r := rand.New(rand.NewSource(5))
	for i := range wakes {
		wakes[i] = uint64(r.Intn(17))
	}
	runBoth(t, g, Config{Model: ModelCD, Seed: 3, WakeRound: wakes}, decayProgram)
}

func TestSchedulerParityFaults(t *testing.T) {
	profiles := map[string]faults.Profile{
		"loss":    {Loss: 0.2},
		"noise":   {Noise: 0.1},
		"jam":     {Jammer: faults.Jammer{Budget: 6, Prob: 0.5}},
		"crash":   {Crash: faults.Crash{Rate: 0.01}},
		"restart": {Crash: faults.Crash{Rate: 0.02, RestartAfter: 3, MaxRestarts: 2}},
		"mixed": {
			Loss:   0.05,
			Noise:  0.05,
			Jammer: faults.Jammer{Budget: 3},
			Crash:  faults.Crash{Rate: 0.01, RestartAfter: 2},
		},
		"wakespread": {WakeSpread: 9},
	}
	gs := parityGraphs(t)
	for fname, fp := range profiles {
		for _, gname := range []string{"star65", "gnp200"} {
			t.Run(fname+"/"+gname, func(t *testing.T) {
				runBoth(t, gs[gname], Config{Model: ModelCD, Seed: 0xc0ffee, Faults: fp}, decayProgram)
			})
		}
	}
}

// TestSchedulerParityUnaryViolation checks that UnaryOnly violations
// produce the same error (same offending node) and the same observer
// prefix on both engines.
func TestSchedulerParityUnaryViolation(t *testing.T) {
	g := graph.Complete(80)
	program := func(env *Env) int64 {
		if env.ID() == 41 {
			env.Transmit(99) // violates unary at round 0
			return 0
		}
		if env.ID() < 41 && env.ID()%2 == 0 {
			return 1 // halts below the violator must still be observed
		}
		env.TransmitBit()
		return 0
	}
	runBoth(t, g, Config{Model: ModelCD, Seed: 1, UnaryOnly: true}, program)
	if _, err := Run(g, Config{Model: ModelCD, Seed: 1, UnaryOnly: true}, program); !errors.Is(err, ErrNotUnary) {
		t.Fatalf("err = %v, want ErrNotUnary", err)
	}
}

func TestSchedulerParityMaxRounds(t *testing.T) {
	g := graph.Cycle(64)
	spin := func(env *Env) int64 {
		for {
			env.Listen()
		}
	}
	runBoth(t, g, Config{Model: ModelCD, Seed: 2, MaxRounds: 50}, spin)
	if _, err := Run(g, Config{Model: ModelCD, Seed: 2, MaxRounds: 50}, spin); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

// TestPoolSequentialRunsIndependent checks that back-to-back pooled runs on
// different graphs and configs cannot leak state through the reused
// scratch: each matches its own fresh-engine run.
func TestPoolSequentialRunsIndependent(t *testing.T) {
	pool := NewPool()
	ctx := WithPool(context.Background(), pool)

	r := rand.New(rand.NewSource(9))
	cases := []struct {
		g   *graph.Graph
		cfg Config
	}{
		{graph.GNP(300, 5.0/300, r), Config{Model: ModelCD, Seed: 1}},
		{graph.Star(20), Config{Model: ModelNoCD, Seed: 2}},
		{graph.GNP(300, 5.0/300, r), Config{Model: ModelCD, Seed: 3, Faults: faults.Profile{Loss: 0.1}}},
		{graph.Cycle(9), Config{Model: ModelBeep, Seed: 4}},
	}
	for i, tc := range cases {
		program := decayProgram
		if tc.cfg.Model == ModelBeep {
			program = beepProgram
		}
		want, wantErr := runReference(tc.g, tc.cfg, program)
		cfg := tc.cfg
		cfg.Ctx = ctx
		got, err := Run(tc.g, cfg, program)
		if err != nil || wantErr != nil {
			t.Fatalf("case %d: err = %v / %v", i, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: pooled result diverges from fresh engine", i)
		}
	}
}
