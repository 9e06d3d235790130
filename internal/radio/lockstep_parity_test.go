package radio

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

// This file holds the lockstep engine's golden parity tests: every lane
// of RunLockstep must be bit-identical — Result with its halt rounds, and
// error — to a scalar Run of the lane program's scalar twin at the lane's
// seed, across the scalar parity matrix (graphs, models, wake staggering,
// unary violations, round caps, pooled reruns, ragged lane counts).

// lanePair is a lane program plus its scalar twin; the pair contract is
// that lane l under RunLockstep behaves exactly like the scalar program
// under Run at cfg.Seed = seeds[l].
type lanePair struct {
	scalar Program
	lane   func() LaneProgram
}

// benchLaneState is the per-(node, lane) state of benchLaneProgram.
type benchLaneState struct {
	rng   uint64
	heard int64
	phase uint8
	j     uint8
	st    uint8
}

const (
	benchStBit = iota
	benchStListen
	benchStAfterListen
	benchStHalt
)

// benchLaneProgram is the lane twin of benchProgram (sched_bench_test.go):
// ten phases of eight decay bits (transmit with halving persistence, else
// a one-round sleep), a listening check, and a random inter-phase sleep.
// Randomness replays each lane's rng.ForNode stream by iterating
// SplitMix64 directly: Int63 draw k is output k shifted right one bit,
// and Intn(4) is the power-of-two path (Int63() >> 32) & 3.
type benchLaneProgram struct {
	state []benchLaneState
}

func (p *benchLaneProgram) Bind(n int, seeds []uint64) {
	if cap(p.state) < n*MaxLanes {
		p.state = make([]benchLaneState, n*MaxLanes)
	}
	p.state = p.state[:n*MaxLanes]
	for v := 0; v < n; v++ {
		base := v * MaxLanes
		for l, seed := range seeds {
			p.state[base+l] = benchLaneState{rng: rng.Mix(seed, uint64(v))}
		}
	}
}

func (p *benchLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	base := node * MaxLanes
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		s := &p.state[base+l]
		bit := uint64(1) << l
		switch s.st {
		case benchStBit:
			var out uint64
			s.rng, out = rng.SplitMix64(s.rng)
			if int64(out>>1)&int64(1<<s.j-1) == 0 {
				act.Transmit |= bit
			} else {
				act.Sleep[l] = 1
			}
			s.j++
			if s.j == 8 {
				s.st = benchStListen
			}
		case benchStListen:
			act.Listen |= bit
			s.st = benchStAfterListen
		case benchStAfterListen:
			if heard&bit != 0 {
				s.heard++
			}
			var out uint64
			s.rng, out = rng.SplitMix64(s.rng)
			act.Sleep[l] = ((out >> 33) & 3) + 1
			s.phase++
			s.j = 0
			if s.phase == 10 {
				s.st = benchStHalt
			} else {
				s.st = benchStBit
			}
		case benchStHalt:
			act.Halt |= bit
			act.Output[l] = s.heard
		}
	}
}

// drowsyProgram is the heap-path workload: mostly asleep with random
// multi-round sleeps, sparse due sets, and rounds with no awake node.
// Every draw is Int63-arithmetic so the lane twin replays it exactly.
func drowsyProgram(env *Env) int64 {
	for i := 0; i < 12; i++ {
		env.Sleep(uint64(env.Rand().Int63()&7) + 1)
		if env.Rand().Int63()&1 == 1 {
			env.TransmitBit()
		} else if env.Listen().Kind != Silence {
			env.Sleep(2)
		}
	}
	return int64(env.Energy())
}

type drowsyLaneState struct {
	rng    uint64
	energy int64
	i      uint8
	st     uint8
}

const (
	drowsyStSleep = iota // next action: the leading sleep of iteration i
	drowsyStAct          // next action: transmit or listen
	drowsyStAfterListen
	drowsyStHalt
)

type drowsyLaneProgram struct {
	state []drowsyLaneState
}

func (p *drowsyLaneProgram) Bind(n int, seeds []uint64) {
	if cap(p.state) < n*MaxLanes {
		p.state = make([]drowsyLaneState, n*MaxLanes)
	}
	p.state = p.state[:n*MaxLanes]
	for v := 0; v < n; v++ {
		base := v * MaxLanes
		for l, seed := range seeds {
			p.state[base+l] = drowsyLaneState{rng: rng.Mix(seed, uint64(v))}
		}
	}
}

func (p *drowsyLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	base := node * MaxLanes
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		s := &p.state[base+l]
		bit := uint64(1) << l
	again:
		switch s.st {
		case drowsyStSleep:
			if s.i == 12 {
				s.st = drowsyStHalt
				goto again
			}
			var out uint64
			s.rng, out = rng.SplitMix64(s.rng)
			act.Sleep[l] = (out>>1)&7 + 1
			s.st = drowsyStAct
		case drowsyStAct:
			s.i++
			var out uint64
			s.rng, out = rng.SplitMix64(s.rng)
			if (out>>1)&1 == 1 {
				act.Transmit |= bit
				s.energy++
				s.st = drowsyStSleep
			} else {
				act.Listen |= bit
				s.energy++
				s.st = drowsyStAfterListen
			}
		case drowsyStAfterListen:
			if heard&bit != 0 {
				act.Sleep[l] = 2
				s.st = drowsyStSleep
				break
			}
			s.st = drowsyStSleep
			goto again
		case drowsyStHalt:
			act.Halt |= bit
			act.Output[l] = s.energy
		}
	}
}

func lockstepPairs() map[string]lanePair {
	return map[string]lanePair{
		"bench":  {scalar: benchProgram, lane: func() LaneProgram { return &benchLaneProgram{} }},
		"drowsy": {scalar: drowsyProgram, lane: func() LaneProgram { return &drowsyLaneProgram{} }},
	}
}

// runBothLockstep executes the pair on the scalar engine (one Run per
// seed) and on the lockstep engine (one RunLockstep across all seeds), and
// requires per-lane bit-identity: same Result (per-node halt rounds
// included), same error text. It runs the
// lockstep side both standalone and twice through a Pool (reused scratch
// and CSR cache).
func runBothLockstep(t *testing.T, g *graph.Graph, cfg Config, pair lanePair, seeds []uint64) {
	t.Helper()

	type scalarOut struct {
		res *Result
		err error
	}
	want := make([]scalarOut, len(seeds))
	for l, seed := range seeds {
		c := cfg
		c.Seed = seed
		res, err := Run(g, c, pair.scalar)
		want[l] = scalarOut{res: res, err: err}
	}

	check := func(t *testing.T, label string, batch *LockstepBatch, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: RunLockstep: %v", label, err)
		}
		if len(batch.Results) != len(seeds) {
			t.Fatalf("%s: got %d lane results, want %d", label, len(batch.Results), len(seeds))
		}
		for l := range seeds {
			w := want[l]
			lerr := batch.Errs[l]
			if (lerr == nil) != (w.err == nil) || (lerr != nil && lerr.Error() != w.err.Error()) {
				t.Fatalf("%s: lane %d error = %v, scalar = %v", label, l, lerr, w.err)
			}
			if lerr != nil {
				continue // errored runs leave the Result unspecified
			}
			if !reflect.DeepEqual(batch.Results[l], w.res) {
				t.Fatalf("%s: lane %d Result diverges from scalar\n got: %+v\nwant: %+v", label, l, batch.Results[l], w.res)
			}
		}
	}

	batch, err := RunLockstep(g, cfg, pair.lane(), seeds)
	check(t, "standalone", batch, err)

	pool := NewPool()
	base := cfg.Ctx
	if base == nil {
		base = context.Background()
	}
	for trial := 0; trial < 2; trial++ {
		c := cfg
		c.Ctx = WithPool(base, pool)
		batch, err := RunLockstep(g, c, pair.lane(), seeds)
		check(t, fmt.Sprintf("pool trial=%d", trial), batch, err)
	}
}

func laneSeeds(n int, salt uint64) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Mix(salt, uint64(i))
	}
	return seeds
}

func TestLockstepParityClean(t *testing.T) {
	for gname, g := range parityGraphs(t) {
		for pname, pair := range lockstepPairs() {
			for _, model := range []Model{ModelCD, ModelNoCD, ModelBeep} {
				for _, lanes := range []int{1, 63, 64} {
					name := fmt.Sprintf("%s/%s/%s/lanes=%d", gname, pname, model, lanes)
					t.Run(name, func(t *testing.T) {
						seeds := laneSeeds(lanes, 0x10c0+uint64(len(name)))
						runBothLockstep(t, g, Config{Model: model}, pair, seeds)
					})
				}
			}
		}
	}
}

func TestLockstepParityWakeRound(t *testing.T) {
	g := graph.Cycle(130)
	wakes := make([]uint64, g.N())
	r := rand.New(rand.NewSource(5))
	for i := range wakes {
		wakes[i] = uint64(r.Intn(17))
	}
	for pname, pair := range lockstepPairs() {
		t.Run(pname, func(t *testing.T) {
			runBothLockstep(t, g, Config{Model: ModelCD, WakeRound: wakes}, pair, laneSeeds(64, 3))
		})
	}
}

// unaryLaneProgram (and its scalar twin) violates unary encoding from
// node 41 in the lanes whose first draw is odd, so one batch mixes dying
// lanes (ErrNotUnary, node 41) with lanes that complete — the per-lane
// fallback-free divergence case. Nodes below 41 halt in round 0 and must
// still be observed in dying lanes; nodes above transmit and pay energy.
func unaryScalarProgram(env *Env) int64 {
	if env.ID() == 41 {
		if env.Rand().Int63()&1 == 1 {
			env.Transmit(99)
		} else {
			env.TransmitBit()
		}
		return 7
	}
	if env.ID() < 41 {
		return 1
	}
	env.TransmitBit()
	return 0
}

type unaryLaneProgram struct {
	n     int
	seeds []uint64
	step2 []uint64 // lanes per node that already did their round-0 action
}

func (p *unaryLaneProgram) Bind(n int, seeds []uint64) {
	p.n = n
	p.seeds = seeds
	if cap(p.step2) < n {
		p.step2 = make([]uint64, n)
	}
	p.step2 = p.step2[:n]
	clear(p.step2)
}

func (p *unaryLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	if node < 41 {
		act.Halt = due
		for m := due; m != 0; m &= m - 1 {
			act.Output[bits.TrailingZeros64(m)] = 1
		}
		return
	}
	first := due &^ p.step2[node]
	second := due & p.step2[node]
	p.step2[node] |= due
	act.Transmit = first
	act.Halt = second
	var haltOut int64
	if node == 41 {
		haltOut = 7
	}
	for m := second; m != 0; m &= m - 1 {
		act.Output[bits.TrailingZeros64(m)] = haltOut
	}
	if node == 41 {
		act.HasPayload = true
		for m := first; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			_, out := rng.SplitMix64(rng.Mix(p.seeds[l], uint64(node)))
			if (out>>1)&1 == 1 {
				act.Payload[l] = 99
			} else {
				act.Payload[l] = 1
			}
		}
	}
}

func TestLockstepParityUnaryViolation(t *testing.T) {
	g := graph.Complete(80)
	pair := lanePair{scalar: unaryScalarProgram, lane: func() LaneProgram { return &unaryLaneProgram{} }}
	seeds := laneSeeds(64, 41)
	runBothLockstep(t, g, Config{Model: ModelCD, UnaryOnly: true}, pair, seeds)

	// Sanity: the batch really does mix dying and surviving lanes.
	batch, err := RunLockstep(g, Config{Model: ModelCD, UnaryOnly: true}, &unaryLaneProgram{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	died, lived := 0, 0
	for _, lerr := range batch.Errs {
		if lerr != nil {
			if !errors.Is(lerr, ErrNotUnary) {
				t.Fatalf("lane error = %v, want ErrNotUnary", lerr)
			}
			died++
		} else {
			lived++
		}
	}
	if died == 0 || lived == 0 {
		t.Fatalf("want a mixed batch, got %d dead / %d live lanes", died, lived)
	}
}

// spinScalarProgram makes node 0 listen forever in lanes where its first
// draw is odd and halt after one listen otherwise (other nodes always
// halt after one listen), so a capped batch mixes ErrMaxRounds lanes with
// completed ones.
func spinScalarProgram(env *Env) int64 {
	spin := env.ID() == 0 && env.Rand().Int63()&1 == 1
	env.Listen()
	for spin {
		env.Listen()
	}
	return 5
}

type spinLaneState struct {
	spin    bool
	started bool
	done    bool
}

type spinLaneProgram struct {
	state []spinLaneState
}

func (p *spinLaneProgram) Bind(n int, seeds []uint64) {
	if cap(p.state) < n*MaxLanes {
		p.state = make([]spinLaneState, n*MaxLanes)
	}
	p.state = p.state[:n*MaxLanes]
	for v := 0; v < n; v++ {
		base := v * MaxLanes
		for l, seed := range seeds {
			_, out := rng.SplitMix64(rng.Mix(seed, uint64(v)))
			p.state[base+l] = spinLaneState{spin: v == 0 && (out>>1)&1 == 1}
		}
	}
}

func (p *spinLaneProgram) Step(node int, due, heard uint64, act *LaneActions) {
	base := node * MaxLanes
	for m := due; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		s := &p.state[base+l]
		bit := uint64(1) << l
		switch {
		case !s.started || s.spin:
			s.started = true
			act.Listen |= bit
		default:
			act.Halt |= bit
			act.Output[l] = 5
		}
	}
}

func TestLockstepParityMaxRounds(t *testing.T) {
	g := graph.Cycle(64)
	pair := lanePair{scalar: spinScalarProgram, lane: func() LaneProgram { return &spinLaneProgram{} }}
	seeds := laneSeeds(64, 77)
	runBothLockstep(t, g, Config{Model: ModelCD, MaxRounds: 50}, pair, seeds)

	batch, err := RunLockstep(g, Config{Model: ModelCD, MaxRounds: 50}, &spinLaneProgram{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	capped := 0
	for _, lerr := range batch.Errs {
		if lerr != nil {
			if !errors.Is(lerr, ErrMaxRounds) {
				t.Fatalf("lane error = %v, want ErrMaxRounds", lerr)
			}
			capped++
		}
	}
	if capped == 0 || capped == len(seeds) {
		t.Fatalf("want a mixed batch, got %d/%d capped lanes", capped, len(seeds))
	}
}

// TestLockstepRagged65 covers the >MaxLanes path a batch caller takes:
// 65 trials split into a 64-lane batch plus a 1-lane batch on the same
// pool, every lane still bit-identical to its scalar run.
func TestLockstepRagged65(t *testing.T) {
	g := graph.GNP(200, 4.0/200, rand.New(rand.NewSource(11)))
	seeds := laneSeeds(65, 9)
	pool := NewPool()
	ctx := WithPool(context.Background(), pool)
	pair := lockstepPairs()["bench"]

	for _, chunk := range [][]uint64{seeds[:64], seeds[64:]} {
		c := Config{Model: ModelCD, Ctx: ctx}
		runBothLockstep(t, g, c, pair, chunk)
	}
}

func TestLockstepCancellation(t *testing.T) {
	g := graph.Cycle(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch, err := RunLockstep(g, Config{Model: ModelCD, Ctx: ctx}, &spinLaneProgram{}, laneSeeds(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	for l, lerr := range batch.Errs {
		if !errors.Is(lerr, ErrAborted) || !errors.Is(lerr, context.Canceled) {
			t.Fatalf("lane %d error = %v, want ErrAborted wrapping context.Canceled", l, lerr)
		}
	}
}

func TestLockstepRejectsScalarOnlyConfig(t *testing.T) {
	g := graph.Cycle(8)
	seeds := laneSeeds(2, 1)
	if _, err := RunLockstep(g, Config{Model: ModelCD, Observer: MultiObserver{}}, &benchLaneProgram{}, seeds); err == nil {
		t.Fatal("observer config should be rejected")
	}
	if _, err := RunLockstep(g, Config{Model: Model(99)}, &benchLaneProgram{}, seeds); err == nil {
		t.Fatal("invalid model should be rejected")
	}
	if _, err := RunLockstep(g, Config{Model: ModelCD}, &benchLaneProgram{}, make([]uint64, 65)); err == nil {
		t.Fatal("more than MaxLanes seeds should be rejected")
	}
}

// TestLockstepPooledSteadyStateAllocs pins the lane path's steady-state
// allocation budget: a warm pooled batch allocates only the per-lane
// result transposition (a handful of backing arrays plus one Result
// header per lane) — nothing per round or per node.
func TestLockstepPooledSteadyStateAllocs(t *testing.T) {
	g := graph.GNP(512, 8.0/512, rand.New(rand.NewSource(7)))
	pool := NewPool()
	ctx := WithPool(context.Background(), pool)
	lp := &benchLaneProgram{}
	seeds := laneSeeds(64, 2)
	cfg := Config{Model: ModelCD, Ctx: ctx}
	if _, err := RunLockstep(g, cfg, lp, seeds); err != nil {
		t.Fatal(err) // warm-up: grows pool scratch and the program's state
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := RunLockstep(g, cfg, lp, seeds); err != nil {
			t.Fatal(err)
		}
	})
	// 64 Result headers + 3 shared backing arrays + 4 batch slices + the
	// batch header ≈ 72; anything near per-round or per-node counts
	// (hundreds+) means the engine started allocating on the hot path.
	if avg > 90 {
		t.Fatalf("steady-state pooled lockstep batch allocates %.0f times, want ≤ 90 (result assembly only)", avg)
	}
}
