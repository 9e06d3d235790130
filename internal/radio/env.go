package radio

import (
	"math/rand"
	"sync/atomic"
)

// Program is a node algorithm. It runs in its own goroutine, interacts with
// the network exclusively through the Env, and its return value is the
// node's output (for MIS algorithms, the final status). Returning halts the
// node: it sleeps forever and spends no further energy.
type Program func(env *Env) int64

// killedError is the sentinel panic value that unwinds a node goroutine
// when the engine ends its life (run teardown or a crash fault).
type killedError struct{}

func (killedError) Error() string { return "radio: node killed by engine shutdown" }

// Env is a node's handle on the simulated radio network. All methods must
// be called from the node's own program goroutine. An Env is not safe for
// use from other goroutines.
//
// An Env backs exactly one life of the node: its program runs from a fresh
// start until it halts or the engine stops it. A crash-restart fault gives
// the node a fresh Env (and goroutine) for its next life.
type Env struct {
	id    int
	n     int
	rand  *rand.Rand
	round uint64 // round at which the node's next action takes place

	// The channel discipline is a plain buffered send per action and a
	// plain receive per Listen. stopped is raised by stopLife and checked
	// before every send; see stopLife for why no send blocks for good.
	intentCh chan intent
	replyCh  chan Reception
	stopped  atomic.Bool

	energy uint64
	phase  string // current phase label, stamped onto awake intents
}

// ID returns the node's index in [0, N). The model is anonymous — the
// paper's algorithms never read IDs — but experiments and traces need them.
func (e *Env) ID() int { return e.id }

// N returns the number of nodes in the simulated network. Algorithms that
// should only know an upper bound receive that bound as an explicit
// parameter instead of calling N.
func (e *Env) N() int { return e.n }

// Round returns the round at which the node's next action will occur.
// Node-local bookkeeping keeps this exact without any global clock:
// Transmit and Listen each consume one round and Sleep(k) consumes k.
func (e *Env) Round() uint64 { return e.round }

// Rand returns the node's private random stream. Streams of distinct nodes
// are independent and the whole run is reproducible from the engine seed.
func (e *Env) Rand() *rand.Rand { return e.rand }

// Energy returns the number of awake rounds the node has spent so far.
func (e *Env) Energy() uint64 { return e.energy }

// Phase labels the node's subsequent awake actions with an algorithm-phase
// name, for energy attribution by an Observer (PhaseBreakdown, the trace
// exporters). It returns the previous label so nested primitives can
// restore their caller's attribution. Setting a phase consumes no rounds
// and no energy and never affects the simulation outcome.
func (e *Env) Phase(name string) (prev string) {
	prev = e.phase
	e.phase = name
	return prev
}

// PhaseLabel returns the node's current phase label ("" when unset).
// Shared primitives use it to annotate their span only when the caller has
// not already claimed it (see internal/backoff).
func (e *Env) PhaseLabel() string { return e.phase }

// Transmit sends payload to all neighbors this round. The node is awake
// (one unit of energy) and cannot listen in the same round; whether any
// neighbor receives the message depends on the collisions at that neighbor.
func (e *Env) Transmit(payload uint64) {
	e.submit(intent{kind: intentTransmit, payload: payload, phase: e.phase})
	e.round++
	e.energy++
}

// TransmitBit transmits the 1-bit used by the unary algorithms ("beep").
func (e *Env) TransmitBit() { e.Transmit(1) }

// Listen spends this round listening and returns what was perceived under
// the network's collision model. The node is awake (one unit of energy).
func (e *Env) Listen() Reception {
	e.submit(intent{kind: intentListen, phase: e.phase})
	e.round++
	e.energy++
	r, ok := <-e.replyCh
	if !ok {
		panic(killedError{}) // replyCh closed: the life was stopped
	}
	return r
}

// Sleep puts the node to sleep for k rounds (no energy). k ≤ 0 is a no-op.
func (e *Env) Sleep(k uint64) {
	if k == 0 {
		return
	}
	e.submit(intent{kind: intentSleep, sleep: k})
	e.round += k
}

// SleepUntil sleeps until the given absolute round. If the target is not in
// the future it is a no-op — this makes the "sleep until round …"
// resynchronization lines of Algorithm 2 safe to call unconditionally.
func (e *Env) SleepUntil(round uint64) {
	if round > e.round {
		e.Sleep(round - e.round)
	}
}

// submit hands the node's next action to the engine. Once the life is
// stopped, stopLife drains intentCh until the goroutine exits, so a send
// already blocked on a full buffer completes, and the node unwinds here
// on its next action.
func (e *Env) submit(it intent) {
	if e.stopped.Load() {
		panic(killedError{})
	}
	e.intentCh <- it
}

// live runs one life of program on e, from its first action until it
// halts or the engine stops it. Closing intentCh on exit is the life's
// last act; stopLife waits for it.
func (e *Env) live(program Program) {
	defer close(e.intentCh)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedError); !ok {
				panic(r) // real bug in a node program
			}
		}
	}()
	e.submit(intent{kind: intentHalt, result: program(e)})
}

// stopLife ends the life, from the engine's side: raise stopped, close
// replyCh (unblocking a node waiting in Listen), then drain intentCh until
// the node goroutine closes it on exit. It serves both run teardown and
// crash faults, and stopping a stopped life is a no-op.
func (e *Env) stopLife() {
	if e.stopped.Swap(true) {
		return
	}
	close(e.replyCh)
	for range e.intentCh {
	}
}

// intentKind enumerates the actions a node can submit for a round.
type intentKind int

const (
	intentTransmit intentKind = iota + 1
	intentListen
	intentSleep
	intentHalt
)

type intent struct {
	kind    intentKind
	payload uint64
	sleep   uint64
	result  int64
	phase   string // Env.Phase label at submission (transmit/listen only)
}
