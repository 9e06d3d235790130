package radio

import (
	"context"
	"fmt"
	"time"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
)

// This file implements the engine's round scheduler: one goroutine advances
// all awake nodes one round at a time, consuming each due node's intent in
// ascending id order and replying to the round's listeners. Two ideas keep
// it cheap:
//
//   - CSR + bitset aggregation. Adjacency is snapshot once per run into a
//     compressed-sparse-row array (graph.CSR) and the round's transmitters
//     into a bitset, so the reception sweep is a dense scan over two
//     cache-resident arrays instead of pointer-chasing per-node slices.
//   - Pooled round buffers. Due lists, the next-round bucket, the event
//     heap, transmitter and listener sets, observer scratch, and the bitset
//     are all reused across rounds (and, via Pool, across runs), so the
//     steady-state scheduler allocates nothing per round.
//
// Event scheduling exploits that almost every event lands on the next
// round: an awake action at round r schedules the node at r+1, which goes
// into an append-only bucket, already in ascending id order. Only sleeps
// and crash-restarts (round > r+1) touch the binary heap.
//
// Determinism contract: the scheduler produces bit-identical Results (and
// observer event streams, and errors) to the reference engine kept in the
// tests at any fixed (graph, config, seed). Fault injection's random draws
// are order-sensitive; they happen inline in ascending id order — crash
// hazards as intents are consumed, then the jam decision, then per-delivery
// losses and per-listener noise — which is exactly the reference order.
// The differential tests in sched_parity_test.go enforce this contract.

// sched is one run's scheduler state. It is reusable: Pool keeps one and
// rebinds it to consecutive runs so all buffers stay warm.
type sched struct {
	csr       *graph.CSR
	model     Model
	unaryOnly bool
	obs       Observer
	inj       *faults.Injector
	nodes     *nodes
	res       *Result
	maxRounds uint64
	done      <-chan struct{}
	ctx       context.Context

	// Round scheduling: cur is the due set of the current round, next the
	// bucket of events for the immediately following round (both ascending
	// by id), and heap holds the rare farther-out events (sleeps, crash
	// restarts).
	cur  []int32
	next []int32
	heap eventHeap

	txIDs     []int32 // transmitters (ascending); also the bitset clear list
	listeners []int32 // listeners (ascending)
	txBits    []uint64
	txPayload []uint64

	round  uint64
	active int

	stats RoundStats // observer-only, buffers reused across rounds

	perf *RunPerf // nil unless Config.Perf is set — see perf.go
}

// coordinate drives one run on the scheduler. It resolves a Pool installed
// on cfg.Ctx (reusing its buffers and CSR snapshot) or builds ephemeral
// state for a standalone run.
func coordinate(g *graph.Graph, cfg *Config, inj *faults.Injector, maxRounds uint64, ns *nodes, wakes []uint64, res *Result) error {
	if pool := poolFrom(cfg.Ctx); pool != nil {
		return pool.coordinate(g, cfg, inj, maxRounds, ns, wakes, res)
	}
	s := &sched{}
	s.bind(graph.BuildCSR(g), cfg, inj, maxRounds, ns, wakes, res)
	return s.loop()
}

// bind (re)points a scheduler at one run, resizing and resetting all
// scratch. It is the only place per-run state is initialized, so a Pool's
// reused sched cannot leak state between runs.
func (s *sched) bind(csr *graph.CSR, cfg *Config, inj *faults.Injector, maxRounds uint64, ns *nodes, wakes []uint64, res *Result) {
	n := len(ns.envs)
	s.csr = csr
	s.model, s.unaryOnly = cfg.Model, cfg.UnaryOnly
	s.obs = cfg.Observer
	s.inj = inj
	s.nodes, s.res = ns, res
	s.maxRounds = maxRounds
	s.ctx = cfg.Ctx
	s.done = nil
	if cfg.Ctx != nil {
		s.done = cfg.Ctx.Done()
	}
	s.active = n
	s.round = 0

	// Perf telemetry is bound before the scratch below so reallocation
	// events are counted; cfg.Perf == nil keeps every site a no-op.
	s.perf = cfg.Perf
	if s.perf != nil {
		s.perf.reset()
	}
	s.cur = s.cur[:0]
	s.next = s.next[:0]
	s.heap = s.heap[:0]
	s.txIDs = s.txIDs[:0]
	s.listeners = s.listeners[:0]
	for id := 0; id < n; id++ {
		s.heap.push(event{round: wakes[id], id: id})
	}

	words := (n + 63) / 64
	if cap(s.txBits) < words {
		s.txBits = make([]uint64, words)
		s.perfGrow()
	}
	s.txBits = s.txBits[:words]
	clear(s.txBits)
	if cap(s.txPayload) < n {
		s.txPayload = make([]uint64, n)
		s.perfGrow()
	}
	s.txPayload = s.txPayload[:n]
}

// loop is the scheduler's round loop: find the next round with a scheduled
// event, run it, and stop when every node has halted (or terminally
// crashed).
func (s *sched) loop() error {
	if s.perf != nil {
		start := time.Now()
		s.perf.LoopStart = start
		defer func() { s.perf.finish(time.Since(start)) }()
	}
	for s.active > 0 {
		// Cooperative abort: one non-blocking check per round boundary
		// keeps a cancelled (or timed-out) run from burning CPU through
		// the rest of its simulation.
		select {
		case <-s.done:
			return fmt.Errorf("%w: %w", ErrAborted, context.Cause(s.ctx))
		default:
		}
		r := s.nextRound()
		if r >= s.maxRounds {
			return fmt.Errorf("%w (cap %d)", ErrMaxRounds, s.maxRounds)
		}
		s.round = r
		if s.perf != nil {
			s.perf.Rounds++
		}
		if err := s.step(r); err != nil {
			return err
		}
		if s.perf != nil && s.perf.sliceStride != 0 {
			s.perf.sliceTick(r)
		}
	}
	return nil
}

// nextRound returns the earliest round with a scheduled event. Every
// active node has exactly one, so the minimum exists whenever the loop
// runs; the bucket always holds the immediately next round, which no heap
// entry can beat.
func (s *sched) nextRound() uint64 {
	if len(s.next) > 0 {
		return s.round + 1
	}
	return s.heap.peekRound()
}

// beginRound clears the previous round's transmitter bits and materializes
// the due set for round r by merging the next-round bucket with any heap
// events that landed on r. Both sources are ascending by id, so cur comes
// out ascending.
func (s *sched) beginRound(r uint64) {
	for _, id := range s.txIDs {
		s.txBits[id>>6] &^= 1 << (id & 63)
	}
	s.txIDs = s.txIDs[:0]
	s.listeners = s.listeners[:0]

	s.cur = s.cur[:0]
	ni := 0
	for len(s.heap) > 0 && s.heap.peekRound() == r {
		id := int32(s.heap.pop().id)
		for ni < len(s.next) && s.next[ni] < id {
			s.cur = append(s.cur, s.next[ni])
			ni++
		}
		s.cur = append(s.cur, id)
	}
	s.cur = append(s.cur, s.next[ni:]...)
	s.next = s.next[:0]
}

// push schedules node id's next event: the common r+1 case goes to the
// append-only bucket (order-preserving, no heap churn), anything farther to
// the heap.
func (s *sched) push(round, cur uint64, id int32) {
	if round == cur+1 {
		s.next = append(s.next, id)
		return
	}
	s.heap.push(event{round: round, id: int(id)})
}

// step runs round r. It consumes every due node's intent in ascending id
// order — drawing crash hazards as it goes, when a fault injector is
// attached — then lets the jammer decide, then delivers receptions in
// ascending listener order. A node error aborts the run after the halts
// of lower-id nodes were observed, exactly like the reference engine.
func (s *sched) step(r uint64) error {
	s.beginRound(r)
	obs, inj, res, envs := s.obs, s.inj, s.res, s.nodes.envs
	if obs != nil {
		s.stats = RoundStats{
			Round:        r,
			Transmitters: s.stats.Transmitters[:0],
			Listeners:    s.stats.Listeners[:0],
			Crashed:      s.stats.Crashed[:0],
		}
	}
	crashes := 0
	for _, id := range s.cur {
		it := <-envs[id].intentCh
		// Crash faults strike awake actions: the node dies before the
		// action takes effect (no transmission, no listen, no energy
		// charged).
		if inj != nil && (it.kind == intentTransmit || it.kind == intentListen) && inj.CrashesNow(int(id)) {
			if resume, ok := s.nodes.crash(int(id), r, inj); ok {
				s.push(resume, r, id)
			} else {
				res.Crashed[id] = true
				s.active--
			}
			crashes++
			if obs != nil {
				s.stats.Crashed = append(s.stats.Crashed, int(id))
			}
			continue
		}
		switch it.kind {
		case intentTransmit:
			if s.unaryOnly && it.payload != 1 {
				return fmt.Errorf("%w: node %d sent %#x", ErrNotUnary, id, it.payload)
			}
			s.txBits[id>>6] |= 1 << (id & 63)
			s.txPayload[id] = it.payload
			s.txIDs = append(s.txIDs, id)
			res.Energy[id]++
			if obs != nil {
				s.stats.Transmitters = append(s.stats.Transmitters, NodeTx{ID: int(id), Phase: it.phase, Payload: it.payload})
			}
			s.push(r+1, r, id)
		case intentListen:
			s.listeners = append(s.listeners, id)
			res.Energy[id]++
			if obs != nil {
				s.stats.Listeners = append(s.stats.Listeners, NodeRx{ID: int(id), Phase: it.phase})
			}
			s.push(r+1, r, id)
		case intentSleep:
			s.push(r+it.sleep, r, id)
		case intentHalt:
			res.Outputs[id] = it.result
			res.HaltRound[id] = r
			s.active--
			if obs != nil {
				obs.ObserveHalt(int(id), it.result, res.Energy[id], r)
			}
		default:
			return fmt.Errorf("radio: node %d submitted unknown intent %d", id, it.kind)
		}
	}

	// The jamming adversary observes the round's contention (the surviving
	// transmitter count) and greedily decides whether to spend budget; a
	// jammed round adds collision-level interference at every listener.
	jammed := false
	if inj != nil && len(s.txIDs) > 0 {
		jammed = inj.JamRound(len(s.txIDs))
		if obs != nil {
			s.stats.Jammed = jammed
		}
	}

	// Deliver receptions: count each listener's transmitting neighbors by
	// scanning its CSR row against the transmitter bitset. With faults
	// attached, each transmitter→listener delivery first passes the loss
	// filter, and noise/jamming add phantom transmitters that the
	// collision rule perceives but no node sent.
	for li, id := range s.listeners {
		physical := 0  // transmitting neighbors (ground truth)
		delivered := 0 // deliveries surviving the loss model
		var payload uint64
		if inj == nil {
			for _, w := range s.csr.Neighbors(int(id)) {
				if s.txBits[w>>6]>>(uint(w)&63)&1 != 0 {
					physical++
					payload = s.txPayload[w]
				}
			}
			delivered = physical
		} else {
			for _, w := range s.csr.Neighbors(int(id)) {
				if s.txBits[w>>6]>>(uint(w)&63)&1 == 0 {
					continue
				}
				physical++
				if !inj.Delivered() {
					continue
				}
				delivered++
				payload = s.txPayload[w]
			}
		}
		effective := delivered
		if jammed {
			effective += 2
		}
		if inj != nil && inj.NoiseAt() {
			effective += 2
			if obs != nil {
				s.stats.Noised++
			}
		}
		reception := perceive(s.model, effective, payload)
		if obs != nil {
			rx := &s.stats.Listeners[li]
			rx.TxNeighbors = physical
			rx.Delivered = delivered
			rx.Outcome = reception.Kind
			s.stats.Lost += physical - delivered
			switch {
			case effective == 0:
				s.stats.Silences++
			case effective == 1:
				s.stats.Successes++
			default:
				s.stats.Collisions++
			}
		}
		envs[id].replyCh <- reception
	}

	if len(s.txIDs) > 0 || len(s.listeners) > 0 || crashes > 0 {
		res.Rounds = r + 1
		if obs != nil {
			obs.ObserveRound(&s.stats)
		}
	}
	return nil
}
