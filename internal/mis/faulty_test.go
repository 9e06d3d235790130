package mis

import (
	"strings"
	"testing"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/rng"
)

func TestAlgorithmsRegistry(t *testing.T) {
	want := []string{"beep", "cd", "linear", "lowdegree", "naive-cd", "naive-nocd", "nocd", "unknown-delta"}
	got := Algorithms()
	if len(got) != len(want) {
		t.Fatalf("Algorithms() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Algorithms() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		if !KnownAlgorithm(name) {
			t.Errorf("KnownAlgorithm(%q) = false", name)
		}
	}
	if KnownAlgorithm("luby-prime") {
		t.Error("KnownAlgorithm accepted an unregistered name")
	}
}

func TestSolveWithFaultsUnknownAlgo(t *testing.T) {
	g := graph.Star(4)
	_, err := Run("bogus", g, ParamsDefault(g.N(), g.MaxDegree()), RunOpts{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("err = %v, want unknown algorithm", err)
	}
}

func TestSolveWithFaultsRejectsBadProfile(t *testing.T) {
	g := graph.Star(4)
	_, err := Run("cd", g, ParamsDefault(g.N(), g.MaxDegree()), RunOpts{Seed: 1, Faults: faults.Profile{Loss: 1.5}})
	if err == nil {
		t.Fatal("invalid profile accepted")
	}
}

// TestCrashedNodesGetCrashedStatus runs Algorithm 1 under crash-stop faults
// aggressive enough to kill someone, and verifies the crash accounting and
// the survivor-restricted checker.
func TestCrashedNodesGetCrashedStatus(t *testing.T) {
	g := graph.Generate(graph.FamilyGNP, 64, rng.New(5))
	p := ParamsDefault(g.N(), g.MaxDegree())
	var res *Result
	var err error
	// Scan a few seeds for a run with at least one terminal crash; the rate
	// is high enough that the first almost surely qualifies.
	for seed := uint64(0); seed < 10; seed++ {
		res, err = Run("cd", g, p, RunOpts{Seed: seed, Faults: faults.Profile{Crash: faults.Crash{Rate: 0.02}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.CrashCount() > 0 {
			break
		}
	}
	if res.CrashCount() == 0 {
		t.Fatal("no terminal crash across 10 seeds at rate 0.02")
	}
	for v, dead := range res.Crashed {
		if dead != (res.Status[v] == StatusCrashed) {
			t.Fatalf("node %d: Crashed=%v but Status=%v", v, dead, res.Status[v])
		}
		if dead && res.InMIS[v] {
			t.Fatalf("crashed node %d marked in the set", v)
		}
	}
	if res.Faults == nil || res.Faults.Crashes == 0 {
		t.Errorf("Result.Faults = %+v, want crash events", res.Faults)
	}
	if err := res.Check(g); err == nil {
		t.Error("Check passed a run with crashed nodes")
	}
	if StatusCrashed.String() != "crashed" {
		t.Errorf("StatusCrashed.String() = %q", StatusCrashed)
	}
}

// TestCheckSurvivorsOnCleanRunMatchesCheck: with no faults both checkers
// agree (and pass) on a correct run.
func TestCheckSurvivorsOnCleanRunMatchesCheck(t *testing.T) {
	g := graph.Generate(graph.FamilyGNP, 48, rng.New(2))
	p := ParamsDefault(g.N(), g.MaxDegree())
	res, err := Run("cd", g, p, RunOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err != nil {
		t.Fatalf("clean run failed Check: %v", err)
	}
	if err := res.CheckSurvivors(g); err != nil {
		t.Fatalf("clean run failed CheckSurvivors: %v", err)
	}
	if res.Faults != nil {
		t.Errorf("clean run carries fault stats: %+v", res.Faults)
	}
	if res.Crashed != nil {
		t.Error("clean run allocated Crashed")
	}
}

// TestViolationCounters builds results by hand to pin down the counters'
// exact semantics.
func TestViolationCounters(t *testing.T) {
	// Path 0-1-2-3.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(status ...Status) *Result {
		r := &Result{Status: status, InMIS: make([]bool, len(status))}
		var crashed []bool
		for v, s := range status {
			if s == StatusInMIS {
				r.InMIS[v] = true
			}
			if s == StatusCrashed {
				if crashed == nil {
					crashed = make([]bool, len(status))
				}
				crashed[v] = true
			}
		}
		r.Crashed = crashed
		return r
	}

	// Adjacent members 1,2 in the set: one violation.
	r := mk(StatusOutMIS, StatusInMIS, StatusInMIS, StatusOutMIS)
	if k := r.IndependenceViolations(g); k != 1 {
		t.Errorf("IndependenceViolations = %d, want 1", k)
	}

	// Node 3's only potential coverer (2) crashed: nodes 0 and 3 uncovered?
	// 0 is adjacent to in-set 1 → covered; 3 has no surviving in-set
	// neighbor → uncovered.
	r = mk(StatusOutMIS, StatusInMIS, StatusCrashed, StatusOutMIS)
	if k := r.UncoveredOut(g); k != 1 {
		t.Errorf("UncoveredOut = %d, want 1", k)
	}
	if err := r.CheckSurvivors(g); err == nil {
		t.Error("CheckSurvivors passed an uncovered survivor")
	}

	// Crashed node itself is exempt: survivors 0(out),1(in) on the pair
	// 0-1 plus dead 2,3 → all conditions met.
	r = mk(StatusOutMIS, StatusInMIS, StatusCrashed, StatusCrashed)
	if err := r.CheckSurvivors(g); err != nil {
		t.Errorf("CheckSurvivors failed a valid survivor MIS: %v", err)
	}

	// An undecided survivor fails.
	r = mk(StatusUndecided, StatusInMIS, StatusCrashed, StatusCrashed)
	if err := r.CheckSurvivors(g); err == nil {
		t.Error("CheckSurvivors passed an undecided survivor")
	}
}

// TestLossDegradesLubyBaseline: the naive CD baseline relies on every
// winner announcement arriving; heavy loss must produce at least one
// violation or uncovered node across a few seeds (this is the cliff E14
// charts).
func TestLossDegradesLubyBaseline(t *testing.T) {
	g := graph.Generate(graph.FamilyGNP, 96, rng.New(7))
	p := ParamsDefault(g.N(), g.MaxDegree())
	broken := 0
	for seed := uint64(0); seed < 5; seed++ {
		res, err := Run("naive-cd", g, p, RunOpts{Seed: seed, Faults: faults.Profile{Loss: 0.4}})
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckSurvivors(g) != nil {
			broken++
		}
	}
	if broken == 0 {
		t.Error("40% loss never broke the naive CD baseline across 5 seeds")
	}
}
