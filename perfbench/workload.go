package main

import (
	"fmt"
	"math/rand"

	"radiomis/internal/mis"
	"radiomis/internal/rng"
	"radiomis/internal/server"
)

// A workload is one named traffic mix. Each closed-loop client draws its
// requests from its own deterministic stream, so a workload seed fixes
// every request the daemon receives.
type workload struct {
	name    string
	cluster bool // serve through a coordinator fanning out to two worker daemons
	wal     bool // give the daemon a write-ahead log (store.Open, sync off)
	draw    func(s *stream) request
}

// workloads lists every workload in the order of BENCHMARK.json, which
// records why each was chosen.
var workloads = []*workload{
	{
		name: "solve-gnp-scalar",
		draw: drawScalarSolve,
	},
	{
		name: "solve-grid-lockstep",
		draw: drawLockstepSolve,
	},
	{
		name: "service-small",
		wal:  true,
		draw: drawServiceSmall,
	},
	{
		name:    "solve-gnp-cluster",
		cluster: true,
		draw:    drawScalarSolve,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// request is one generated client request: a solve job or a schedule call.
type request struct {
	client, index int
	solve         *server.JobRequest
	sched         *server.ScheduleRequest
	// wantEngine is the engine a solve job must report; a job that lands
	// on the other engine fails the correctness gate.
	wantEngine string
}

func (r request) kind() string {
	if r.sched != nil {
		return "schedule"
	}
	return "solve"
}

func (r request) seed() uint64 {
	if r.sched != nil {
		return r.sched.Seed
	}
	return r.solve.Seed
}

// stream is one client's deterministic request sequence.
type stream struct {
	client int
	drawn  int
	r      *rand.Rand
	recent []uint64 // last reuseWindow seeds, for workloads that repeat keys
}

// reuseWindow is how many recent seeds a service-small client may repeat.
const reuseWindow = 8

// newStream returns client's request stream for a workload seed. The
// stream depends only on (seed, client), so two workloads sharing a draw
// function send identical requests.
func newStream(seed uint64, client int) *stream {
	return &stream{client: client, r: rng.New(rng.Mix(seed, uint64(client)))}
}

func (s *stream) next(w *workload) request {
	req := w.draw(s)
	req.client, req.index = s.client, s.drawn
	s.drawn++
	return req
}

// freshSeed draws a seed no earlier request used (with overwhelming
// probability), so the job misses every cache.
func (s *stream) freshSeed() uint64 { return s.r.Uint64() }

// reusedSeed repeats one of the client's last reuseWindow seeds with
// probability ½ and otherwise draws a fresh one.
func (s *stream) reusedSeed() uint64 {
	if len(s.recent) > 0 && s.r.Intn(2) == 0 {
		return s.recent[s.r.Intn(len(s.recent))]
	}
	seed := s.freshSeed()
	s.recent = append(s.recent, seed)
	if len(s.recent) > reuseWindow {
		s.recent = s.recent[1:]
	}
	return seed
}

// drawScalarSolve: of every 4 jobs, 3 are cd on G(1024, 8/n) with 16
// trials and 1 is nocd on G(128, 8/n) with 2 trials. gnp is not
// seed-invariant, so both resolve to the scalar engine. The fixed cycle,
// rather than a random choice, keeps the mix the same at every seed.
func drawScalarSolve(s *stream) request {
	req := &server.JobRequest{Kind: server.KindSolve, Family: "gnp", Seed: s.freshSeed()}
	if s.drawn%4 == 3 {
		req.Algorithm, req.N, req.Trials = "nocd", 128, 2
	} else {
		req.Algorithm, req.N, req.Trials = "cd", 1024, 16
	}
	return request{solve: req, wantEngine: mis.EngineScalar}
}

// drawLockstepSolve: cd on a 64×64 grid with 64 trials, which auto
// resolves to one 64-lane lockstep batch.
func drawLockstepSolve(s *stream) request {
	req := &server.JobRequest{Kind: server.KindSolve, Algorithm: "cd", Family: "grid",
		N: 4096, Trials: 64, Seed: s.freshSeed()}
	return request{solve: req, wantEngine: mis.EngineLockstep}
}

// drawServiceSmall: half linear-MIS schedule calls on G(2000, 8/n), half
// linear solve jobs on G(512, 8/n) with 8 trials; seeds repeat so that
// about 0.3 of requests hit a cache.
func drawServiceSmall(s *stream) request {
	schedule := s.r.Intn(2) == 0
	seed := s.reusedSeed()
	if schedule {
		return request{sched: &server.ScheduleRequest{Algorithm: "linear", Family: "gnp", N: 2000, Seed: seed}}
	}
	req := &server.JobRequest{Kind: server.KindSolve, Algorithm: "linear", Family: "gnp",
		N: 512, Trials: 8, Seed: seed}
	return request{solve: req, wantEngine: mis.EngineScalar}
}
