package mis

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// laneAlgos are the registry entries with lockstep lane programs; the
// parity tests below pin each one's lane twin bit-identical to its scalar
// program.
var laneAlgos = []string{"cd", "beep", "naive-cd"}

func manySeeds(seed uint64, trials int) []uint64 {
	seeds := make([]uint64, trials)
	for i := range seeds {
		seeds[i] = rng.Mix(seed, uint64(i))
	}
	return seeds
}

// runManyBoth runs the same batch on both engines and asserts per-trial
// bit-identical results, returning the (shared) outcome.
func runManyBoth(t *testing.T, name string, g *graph.Graph, p Params, seeds []uint64) []*Result {
	t.Helper()
	scalar, err := RunMany(name, g, p, ManyOpts{Seeds: seeds, Engine: EngineScalar})
	if err != nil {
		t.Fatalf("scalar RunMany: %v", err)
	}
	lock, err := RunMany(name, g, p, ManyOpts{Seeds: seeds, Engine: EngineLockstep})
	if err != nil {
		t.Fatalf("lockstep RunMany: %v", err)
	}
	if len(lock) != len(scalar) {
		t.Fatalf("lockstep returned %d results, scalar %d", len(lock), len(scalar))
	}
	for i := range scalar {
		if !reflect.DeepEqual(lock[i], scalar[i]) {
			t.Fatalf("trial %d diverges between engines:\nlockstep: %+v\nscalar:   %+v", i, lock[i], scalar[i])
		}
	}
	return scalar
}

func TestRunManyParity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle33": graph.Cycle(33),
		"gnp96":   graph.GNP(96, 6.0/96, rng.New(17)),
		"star17":  graph.Star(17),
	}
	for gname, g := range graphs {
		p := ParamsDefault(g.N(), g.MaxDegree())
		for _, algo := range laneAlgos {
			// Trial counts straddle the 64-lane chunk boundary: one chunk
			// partial, one exact, and a ragged second chunk.
			for _, trials := range []int{1, 63, 64, 65} {
				t.Run(fmt.Sprintf("%s/%s/trials=%d", algo, gname, trials), func(t *testing.T) {
					results := runManyBoth(t, algo, g, p, manySeeds(uint64(trials), trials))
					// Each result must also match the single-trial entry point.
					seeds := manySeeds(uint64(trials), trials)
					for _, i := range []int{0, len(results) - 1} {
						single, err := Run(algo, g, p, RunOpts{Seed: seeds[i]})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(results[i], single) {
							t.Fatalf("trial %d diverges from single-trial Run", i)
						}
					}
				})
			}
		}
	}
}

func TestRunManyAutoUsesLockstepResults(t *testing.T) {
	// EngineAuto must be indistinguishable from either explicit engine.
	g := graph.GNP(64, 0.1, rng.New(5))
	p := ParamsDefault(g.N(), g.MaxDegree())
	seeds := manySeeds(9, 10)
	auto, err := RunMany("cd", g, p, ManyOpts{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	want := runManyBoth(t, "cd", g, p, seeds)
	if !reflect.DeepEqual(auto, want) {
		t.Fatal("EngineAuto results diverge from explicit engines")
	}
}

func TestRunManyScalarFallbacks(t *testing.T) {
	g := graph.GNP(48, 0.1, rng.New(7))
	p := ParamsDefault(g.N(), g.MaxDegree())
	seeds := manySeeds(3, 4)
	// Algorithms without a lane program fall back to scalar under auto and
	// still match the single-trial path.
	for _, algo := range []string{"nocd", "linear"} {
		results, err := RunMany(algo, g, p, ManyOpts{Seeds: seeds})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for i, seed := range seeds {
			single, err := Run(algo, g, p, RunOpts{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results[i], single) {
				t.Fatalf("%s trial %d diverges from single-trial Run", algo, i)
			}
		}
	}
}

func TestRunManyEngineValidation(t *testing.T) {
	g := graph.Cycle(8)
	p := ParamsDefault(8, 2)
	seeds := manySeeds(1, 2)
	cases := []struct {
		name string
		algo string
		opts ManyOpts
		want string
	}{
		{"unknown engine", "cd", ManyOpts{Seeds: seeds, Engine: "warp"}, "unknown engine"},
		{"unknown algorithm", "nope", ManyOpts{Seeds: seeds}, "unknown algorithm"},
		{"no lane program", "nocd", ManyOpts{Seeds: seeds, Engine: EngineLockstep}, "no lockstep lane program"},
		{"sequential", "linear", ManyOpts{Seeds: seeds, Engine: EngineLockstep}, "no lockstep lane program"},
		{"faults", "cd", ManyOpts{Seeds: seeds, Engine: EngineLockstep,
			Faults: faults.Profile{Loss: 0.1}}, "fault injection"},
		{"observer", "cd", ManyOpts{Seeds: seeds, Engine: EngineLockstep,
			Observer: &radio.MultiObserver{}}, "observers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunMany(tc.algo, g, p, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
	// Faults and observers remain usable on the scalar engine.
	if _, err := RunMany("cd", g, p, ManyOpts{Seeds: seeds, Engine: EngineScalar,
		Faults: faults.Profile{Loss: 0.1}}); err != nil {
		t.Fatalf("scalar engine with faults: %v", err)
	}
}

func TestRunManyCancellation(t *testing.T) {
	g := graph.Cycle(16)
	p := ParamsDefault(16, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []string{EngineScalar, EngineLockstep} {
		_, err := RunMany("cd", g, p, ManyOpts{Seeds: manySeeds(2, 3), Ctx: ctx, Engine: engine})
		if !errors.Is(err, radio.ErrAborted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error = %v, want ErrAborted wrapping context.Canceled", engine, err)
		}
		if !strings.Contains(err.Error(), "trial 0") {
			t.Fatalf("%s: error = %v, want first-trial attribution", engine, err)
		}
	}
}

func TestRunManyEmptyAndPooled(t *testing.T) {
	g := graph.Cycle(12)
	p := ParamsDefault(12, 2)
	if results, err := RunMany("cd", g, p, ManyOpts{}); err != nil || len(results) != 0 {
		t.Fatalf("empty batch = (%v, %v), want ([], nil)", results, err)
	}
	// A pooled rerun must be bit-identical to the cold run.
	ctx := radio.WithPool(context.Background(), radio.NewPool())
	seeds := manySeeds(11, 65)
	cold, err := RunMany("cd", g, p, ManyOpts{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	for rerun := 0; rerun < 2; rerun++ {
		warm, err := RunMany("cd", g, p, ManyOpts{Seeds: seeds, Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("pooled rerun %d diverges from cold run", rerun)
		}
	}
}

func TestLockstepCapable(t *testing.T) {
	want := map[string]bool{
		"cd": true, "beep": true, "naive-cd": true,
		"nocd": false, "lowdegree": false, "naive-nocd": false,
		"unknown-delta": false, "linear": false, "nope": false,
	}
	for name, capable := range want {
		if got := LockstepCapable(name); got != capable {
			t.Errorf("LockstepCapable(%q) = %v, want %v", name, got, capable)
		}
	}
	for _, info := range Infos() {
		if info.Lockstep != want[info.Name] {
			t.Errorf("Infos()[%s].Lockstep = %v, want %v", info.Name, info.Lockstep, want[info.Name])
		}
	}
}

// FuzzRunManyParity drives random divergence points — graph shape, lane
// algorithm, ragged trial counts, per-trial seed offsets, and mid-run
// cancellation — asserting the lockstep engine's per-lane results stay
// bit-identical to the scalar engine's, with seeds derived as
// rng.Mix(seed, offset+i).
func FuzzRunManyParity(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint8(7), uint8(40), uint8(0), false)
	f.Add(uint64(2), uint64(9), uint8(65), uint8(90), uint8(1), false)
	f.Add(uint64(3), uint64(100), uint8(64), uint8(10), uint8(2), true)
	f.Add(uint64(4), uint64(3), uint8(63), uint8(1), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed, offset uint64, trials, n, algoIdx uint8, cancel bool) {
		if trials == 0 || trials > 80 || n == 0 || n > 100 {
			t.Skip()
		}
		algo := laneAlgos[int(algoIdx)%len(laneAlgos)]
		g := graph.GNP(int(n), 4.0/float64(n), rng.New(seed))
		p := ParamsDefault(g.N(), max(g.MaxDegree(), 1))
		seeds := make([]uint64, trials)
		for i := range seeds {
			seeds[i] = rng.Mix(seed, offset+uint64(i))
		}
		ctx := context.Background()
		if cancel {
			c, cancelFn := context.WithCancel(ctx)
			cancelFn()
			ctx = c
		}
		scalar, serr := RunMany(algo, g, p, ManyOpts{Seeds: seeds, Ctx: ctx, Engine: EngineScalar})
		lock, lerr := RunMany(algo, g, p, ManyOpts{Seeds: seeds, Ctx: ctx, Engine: EngineLockstep})
		if (serr == nil) != (lerr == nil) {
			t.Fatalf("error divergence: scalar=%v lockstep=%v", serr, lerr)
		}
		if serr != nil {
			if serr.Error() != lerr.Error() {
				t.Fatalf("error text divergence:\nscalar:   %v\nlockstep: %v", serr, lerr)
			}
			return
		}
		for i := range scalar {
			if !reflect.DeepEqual(lock[i], scalar[i]) {
				t.Fatalf("trial %d diverges:\nlockstep: %+v\nscalar:   %+v", i, lock[i], scalar[i])
			}
		}
	})
}
