package radio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

// DefaultMaxRounds is the safety cap on simulated rounds. The paper's
// slowest algorithm runs in O(log³ n · log Δ) rounds; even with generous
// constants this cap is far beyond any legitimate run at feasible n, so
// hitting it indicates a livelocked algorithm.
const DefaultMaxRounds = 1 << 28

// ErrMaxRounds is returned when a run exceeds its round budget.
var ErrMaxRounds = errors.New("radio: exceeded maximum simulated rounds")

// ErrAborted is returned (wrapped, with the context's cause) when a run is
// stopped by its Config.Ctx before all nodes halt.
var ErrAborted = errors.New("radio: run aborted")

// Config parameterizes a simulation run.
type Config struct {
	// Model selects the collision semantics (required).
	Model Model
	// Ctx, when non-nil, bounds the run: the coordinator checks it at
	// every round boundary and aborts with ErrAborted (wrapping the
	// context's error) once it is cancelled, tearing down all node
	// goroutines before Run returns. nil means run to completion.
	Ctx context.Context
	// Seed derives every node's private random stream; runs with equal
	// seeds (and equal inputs) are bit-for-bit identical.
	Seed uint64
	// MaxRounds caps simulated time; 0 means DefaultMaxRounds.
	MaxRounds uint64
	// Observer, when non-nil, receives structured per-round reception
	// statistics (RoundStats) and halt events. When it is nil the
	// coordinator skips all observation work and allocates nothing per
	// round.
	Observer Observer
	// WakeRound optionally staggers node start times: node i begins
	// executing at round WakeRound[i] (its Env round counter starts
	// there). nil means synchronous wake-up at round 0 — the assumption
	// the paper's algorithms are designed for (§1.1); staggered wake-up
	// exists to demonstrate and test that assumption's necessity.
	WakeRound []uint64
	// Faults composes the channel-perturbation and node-failure models
	// applied to the run (message loss, spurious-collision noise, a
	// budgeted jamming adversary, crash/crash-restart faults, random
	// wake-up staggering). The zero profile is the clean §1.1 model and
	// runs through the exact same code path as a config without faults,
	// so clean results stay bit-for-bit identical. Faults.WakeSpread and
	// WakeRound are mutually exclusive.
	Faults faults.Profile
	// UnaryOnly makes the engine reject any transmission whose payload is
	// not the single bit 1, aborting the run with ErrNotUnary. It verifies
	// the paper's §1.3 claim that its algorithms perform only unary
	// communication (and are therefore beeping-compatible).
	UnaryOnly bool
	// Perf, when non-nil, receives the run's scheduler performance
	// counters (loop wall time, pool/CSR reuse, buffer growth, round
	// slices — see RunPerf). Collection is out-of-band: the Result and
	// observer stream are bit-identical with Perf set or nil, and a nil
	// Perf costs the scheduler nothing.
	Perf *RunPerf
}

// ErrNotUnary is returned when a run configured with UnaryOnly transmits a
// payload other than 1.
var ErrNotUnary = errors.New("radio: non-unary transmission under UnaryOnly")

// lifeSalt separates the seed domains of a node's successive lives under
// crash-restart faults: a node's first life draws from ForNode(seed, i) as
// always; its (L+2)-th life draws from ForNode(Mix(seed, lifeSalt+L), i).
// The value is arbitrary; it only needs to be fixed so runs stay
// reproducible.
const lifeSalt uint64 = 0x11fe_57a6_0000_0001

// Result summarizes a completed run.
type Result struct {
	// Outputs holds each node's program return value.
	Outputs []int64
	// Energy holds each node's awake-round count — the paper's energy
	// complexity measure, per node.
	Energy []uint64
	// HaltRound holds the round at which each node's program halted (the
	// round Observer.ObserveHalt reports), or 0 for a node that never
	// halted.
	HaltRound []uint64
	// Rounds is the total number of rounds elapsed until the last awake
	// action (the round complexity of the run).
	Rounds uint64
	// Crashed marks nodes that were dead when the run ended (their
	// Outputs entry is meaningless). nil unless Config.Faults enables
	// crash faults.
	Crashed []bool
	// Faults counts the fault events the run experienced (losses, noise
	// hits, jams, crashes, restarts). nil for clean runs.
	Faults *faults.Stats
}

// MaxEnergy returns the worst-case (maximum) per-node energy — the paper's
// energy complexity.
func (r *Result) MaxEnergy() uint64 {
	var max uint64
	for _, e := range r.Energy {
		if e > max {
			max = e
		}
	}
	return max
}

// AvgEnergy returns the node-averaged energy.
func (r *Result) AvgEnergy() float64 {
	if len(r.Energy) == 0 {
		return 0
	}
	var sum uint64
	for _, e := range r.Energy {
		sum += e
	}
	return float64(sum) / float64(len(r.Energy))
}

// TotalEnergy returns the sum of all nodes' energies.
func (r *Result) TotalEnergy() uint64 {
	var sum uint64
	for _, e := range r.Energy {
		sum += e
	}
	return sum
}

// intentBuf is the depth of each node's intent channel. A deep buffer lets
// a node program run ahead of the coordinator — queueing its next transmit,
// sleep, and listen actions without a goroutine wake-up per round — until it
// genuinely has to block for a reception. The scheduler consumes exactly one
// intent per scheduled round regardless of depth, so results are identical
// at any buffer size; only the synchronization cost changes.
const intentBuf = 16

// Run simulates program on every vertex of g under cfg and blocks until all
// nodes halt. It returns ErrMaxRounds (wrapped) if the round budget is
// exhausted; in that case all node goroutines are torn down before Run
// returns.
//
// Runs execute on the round scheduler (see sched.go), which advances all
// awake nodes one round at a time. Attach a Pool (WithPool) to reuse the
// scheduler's round buffers and CSR snapshot across many runs, e.g. across
// the trials of a benchmark batch.
func Run(g *graph.Graph, cfg Config, program Program) (*Result, error) {
	return run(g, cfg, program, coordinate)
}

// coordinator drives one run's round loop over the node lives in ns until
// every node has halted or terminally crashed. Run plugs in the scheduler
// (coordinate); the tests plug in a reference engine.
type coordinator func(g *graph.Graph, cfg *Config, inj *faults.Injector, maxRounds uint64, ns *nodes, wakes []uint64, res *Result) error

// run validates cfg, starts one goroutine per node, hands the round loop
// to coord, and stops every node's life before it returns.
func run(g *graph.Graph, cfg Config, program Program, coord coordinator) (*Result, error) {
	if cfg.Model < ModelCD || cfg.Model > ModelBeep {
		return nil, fmt.Errorf("radio: invalid model %v", cfg.Model)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	n := g.N()
	res := &Result{
		Outputs:   make([]int64, n),
		Energy:    make([]uint64, n),
		HaltRound: make([]uint64, n),
	}
	if n == 0 {
		return res, nil
	}

	if cfg.WakeRound != nil && len(cfg.WakeRound) != n {
		return nil, fmt.Errorf("radio: WakeRound has %d entries, graph has %d nodes", len(cfg.WakeRound), n)
	}
	// Compile the fault profile. Zero profiles get no injector at all, so
	// a clean run is structurally identical to one configured before the
	// fault layer existed — the zero-fault parity guarantee.
	var inj *faults.Injector
	if !cfg.Faults.IsZero() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("radio: %w", err)
		}
		if cfg.Faults.WakeSpread > 0 && cfg.WakeRound != nil {
			return nil, errors.New("radio: Config.WakeRound and Faults.WakeSpread are mutually exclusive")
		}
		inj = faults.NewInjector(cfg.Faults, cfg.Seed, n)
		if inj.HasCrash() {
			res.Crashed = make([]bool, n)
		}
	}
	ns := &nodes{envs: make([]*Env, n), program: program, seed: cfg.Seed}
	wakes := make([]uint64, n)
	for i := range wakes {
		switch {
		case cfg.WakeRound != nil:
			wakes[i] = cfg.WakeRound[i]
		case inj != nil:
			wakes[i] = inj.WakeRound(i)
		}
		ns.start(i, wakes[i], rng.ForNode(cfg.Seed, i))
	}

	err := coord(g, &cfg, inj, maxRounds, ns, wakes, res)
	if inj != nil {
		stats := inj.Stats()
		res.Faults = &stats
	}
	// Tear down: stopLife returns only once the life's goroutine has
	// closed its intent channel on exit, so no node outlives the run.
	for _, env := range ns.envs {
		env.stopLife()
	}
	return res, err
}

// nodes holds a run's node lives: one Env, driven by one goroutine, per
// node. A crash-restart fault replaces a node's Env with a fresh life.
type nodes struct {
	envs    []*Env
	program Program
	seed    uint64
}

// start launches a life of node id whose first action takes place at round.
func (ns *nodes) start(id int, round uint64, rand *rand.Rand) {
	env := &Env{
		id:       id,
		n:        len(ns.envs),
		rand:     rand,
		round:    round,
		intentCh: make(chan intent, intentBuf),
		replyCh:  make(chan Reception, 1),
	}
	ns.envs[id] = env
	go env.live(ns.program)
}

// crash ends node id's current life on a crash fault at round r. When the
// injector reboots the node, crash starts its next life and reports the
// round that life begins at; otherwise the node is dead for good.
//
// A rebooted life draws from a fresh per-life stream: the dying life may
// have drawn from its stream after the crash was decided (how often
// depends on goroutine scheduling), and a rebooted device reseeds its PRNG.
func (ns *nodes) crash(id int, r uint64, inj *faults.Injector) (resume uint64, restarted bool) {
	ns.envs[id].stopLife()
	delay, ok := inj.Restart(id)
	if !ok {
		return 0, false
	}
	life := uint64(inj.Restarts(id) - 1)
	ns.start(id, r+delay, rng.ForNode(rng.Mix(ns.seed, lifeSalt+life), id))
	return r + delay, true
}

// eventHeap is a binary min-heap of pending node wake-ups ordered by
// (round, id). It is hand-rolled instead of wrapping container/heap
// because the interface boxing of heap.Push allocates on every call — the
// coordinator's hottest operation — whereas the typed version keeps the
// steady-state scheduler allocation-free (see TestNilObserverAddsNoAllocs).
type eventHeap []event

type event struct {
	round uint64
	id    int
}

func (h eventHeap) less(i, j int) bool {
	if h[i].round != h[j].round {
		return h[i].round < h[j].round
	}
	return h[i].id < h[j].id
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < len(s) && s.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < len(s) && s.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

func (h eventHeap) peekRound() uint64 { return h[0].round }
