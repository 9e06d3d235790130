package faults

import (
	"math/rand"

	"radiomis/internal/rng"
)

// Stream tags separating the fault models' randomness. Each model derives
// its generator from rng.Mix(runSeed, tag) — independent of the nodes'
// private streams (which use the raw node ID) and of each other, so
// enabling one fault model never perturbs another model's draws.
const (
	streamLoss  uint64 = 0xfa010_1055 // "loss"
	streamNoise uint64 = 0xfa020_401c // "noise"
	streamJam   uint64 = 0xfa030_04a3 // "jam"
	streamCrash uint64 = 0xfa040_0c2a // "crash"
	streamWake  uint64 = 0xfa050_3a4e // "wake"
)

// Stats counts the fault events one run actually experienced. The engine
// copies a snapshot into radio.Result for experiment reporting.
type Stats struct {
	// Lost counts dropped transmitter→listener deliveries.
	Lost uint64 `json:"lost"`
	// Noised counts listener-rounds hit by spurious-collision noise.
	Noised uint64 `json:"noised"`
	// Jams counts rounds the adversary jammed (≤ Jammer.Budget).
	Jams uint64 `json:"jams"`
	// Crashes counts crash events, terminal and restarted alike.
	Crashes uint64 `json:"crashes"`
	// Restarts counts crash events followed by a reboot.
	Restarts uint64 `json:"restarts"`
}

// Injector is the per-run state of a fault profile: the derived random
// streams, the jammer's remaining budget, and per-node crash bookkeeping.
// The engine's coordinator drives it from a single goroutine; an Injector
// is not safe for concurrent use and must not be reused across runs.
type Injector struct {
	p Profile

	lossRand  *rand.Rand
	noiseRand *rand.Rand
	jamRand   *rand.Rand
	crashSeed uint64
	wakeSeed  uint64

	crashRand []*rand.Rand // lazily built per-node hazard streams
	restarts  []int        // per-node reboot counts
	jamLeft   uint64

	stats Stats
}

// NewInjector compiles the profile for a run over n nodes with the given
// engine seed. The caller is expected to have validated p and to skip
// injection entirely for zero profiles.
func NewInjector(p Profile, seed uint64, n int) *Injector {
	in := &Injector{
		p:         p,
		crashSeed: rng.Mix(seed, streamCrash),
		wakeSeed:  rng.Mix(seed, streamWake),
		jamLeft:   p.Jammer.Budget,
	}
	if p.Loss > 0 {
		in.lossRand = rng.New(rng.Mix(seed, streamLoss))
	}
	if p.Noise > 0 {
		in.noiseRand = rng.New(rng.Mix(seed, streamNoise))
	}
	if p.Jammer.Budget > 0 {
		in.jamRand = rng.New(rng.Mix(seed, streamJam))
	}
	if p.Crash.Rate > 0 {
		in.crashRand = make([]*rand.Rand, n)
		in.restarts = make([]int, n)
	}
	return in
}

// HasCrash reports whether crash faults are enabled — the engine only
// builds the per-node crash plumbing when they are.
func (in *Injector) HasCrash() bool { return in.p.Crash.Rate > 0 }

// WakeRound returns node id's adversarially staggered start round, drawn
// uniformly from [0, WakeSpread] on the node's private wake stream.
func (in *Injector) WakeRound(id int) uint64 {
	if in.p.WakeSpread == 0 {
		return 0
	}
	r := rng.New(rng.Mix(in.wakeSeed, uint64(id)))
	return uint64(r.Int63n(int64(in.p.WakeSpread) + 1))
}

// WakeSpread returns the configured maximum wake stagger.
func (in *Injector) WakeSpread() uint64 { return in.p.WakeSpread }

// CrashesNow draws node id's hazard for one awake action: true means the
// node dies before the action takes effect. Each node draws from its own
// stream, so one node's crash fate is independent of every other node's.
func (in *Injector) CrashesNow(id int) bool {
	if in.p.Crash.Rate <= 0 {
		return false
	}
	r := in.crashRand[id]
	if r == nil {
		r = rng.New(rng.Mix(in.crashSeed, uint64(id)))
		in.crashRand[id] = r
	}
	if r.Float64() >= in.p.Crash.Rate {
		return false
	}
	in.stats.Crashes++
	return true
}

// Restart reports whether the node that just crashed reboots, and after
// how many rounds. Crash-stop profiles and nodes past MaxRestarts die
// terminally.
func (in *Injector) Restart(id int) (delay uint64, ok bool) {
	c := in.p.Crash
	if c.RestartAfter == 0 {
		return 0, false
	}
	if c.MaxRestarts > 0 && in.restarts[id] >= c.MaxRestarts {
		return 0, false
	}
	in.restarts[id]++
	in.stats.Restarts++
	return c.RestartAfter, true
}

// Restarts returns how many times node id has rebooted so far.
func (in *Injector) Restarts(id int) int { return in.restarts[id] }

// JamRound decides whether the adversary jams a round with nTx observed
// transmitters, spending one unit of budget when it does. The strategy is
// greedy-online: any round at or above the contention threshold is worth
// the energy (dithered by Prob), which is the best an adversary can do
// without foreknowledge of future contention.
func (in *Injector) JamRound(nTx int) bool {
	j := in.p.Jammer
	if in.jamLeft == 0 || j.Budget == 0 {
		return false
	}
	threshold := j.Threshold
	if threshold < 1 {
		threshold = 1
	}
	if nTx < threshold {
		return false
	}
	if j.Prob > 0 && j.Prob < 1 && in.jamRand.Float64() >= j.Prob {
		return false
	}
	in.jamLeft--
	in.stats.Jams++
	return true
}

// Delivered draws one transmitter→listener delivery: false means the
// message is lost at this listener. The engine must call it in a
// deterministic order (listeners ascending, neighbors in adjacency order),
// which the coordinator's single-threaded reception loop guarantees.
func (in *Injector) Delivered() bool {
	if in.p.Loss <= 0 {
		return true
	}
	if in.lossRand.Float64() < in.p.Loss {
		in.stats.Lost++
		return false
	}
	return true
}

// NoiseAt draws one listener-round noise event: true means the listener
// perceives collision-level interference this round.
func (in *Injector) NoiseAt() bool {
	if in.p.Noise <= 0 {
		return false
	}
	if in.noiseRand.Float64() < in.p.Noise {
		in.stats.Noised++
		return true
	}
	return false
}

// Stats returns a snapshot of the fault events drawn so far.
func (in *Injector) Stats() Stats { return in.stats }
