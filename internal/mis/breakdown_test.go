package mis

import (
	"testing"

	"radiomis/internal/graph"
	"radiomis/internal/obs"
	"radiomis/internal/rng"
)

// noCDSegments runs Algorithm 2 with a PhaseBreakdown attached and folds
// its phase labels into the three segments of the ablation analysis:
// competition, checks (deep check, announce, shallow check), and
// LowDegreeMIS. Slices are indexed by node.
func noCDSegments(t *testing.T, g *graph.Graph, p Params, seed uint64) (res *Result, comp, checks, low []uint64) {
	t.Helper()
	bd := obs.NewPhaseBreakdown(g.N())
	res, err := Run("nocd", g, p, RunOpts{Seed: seed, Observer: bd})
	if err != nil {
		t.Fatal(err)
	}
	seg := func(names ...string) []uint64 {
		out := make([]uint64, g.N())
		for _, name := range names {
			if ps := bd.Phase(name); ps != nil {
				for v, e := range ps.Awake {
					out[v] += e
				}
			}
		}
		return out
	}
	return res, seg("competition"), seg("deep-check", "announce", "shallow-check"), seg("low-degree")
}

func total(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestBreakdownSumsToTotalEnergy(t *testing.T) {
	// Every awake round carries exactly one of the five segment labels, so
	// the three segments must account for each node's energy exactly.
	g := graph.GNP(64, 0.1, rng.New(120))
	p := ParamsDefault(g.N(), g.MaxDegree())
	res, comp, checks, low := noCDSegments(t, g, p, 5)
	if err := res.Check(g); err != nil {
		t.Fatal(err)
	}
	for v := range res.Energy {
		if sum := comp[v] + checks[v] + low[v]; sum != res.Energy[v] {
			t.Fatalf("node %d: breakdown sums to %d, energy is %d (comp=%d checks=%d low=%d)",
				v, sum, res.Energy[v], comp[v], checks[v], low[v])
		}
	}
}

func TestBreakdownMatchesPlainRun(t *testing.T) {
	// Instrumentation must not change behaviour: same seed ⇒ identical
	// statuses and energies as the plain solver.
	g := graph.GNP(48, 0.12, rng.New(121))
	p := ParamsDefault(g.N(), g.MaxDegree())
	plain, err := Run("nocd", g, p, RunOpts{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, _, _ := noCDSegments(t, g, p, 9)
	for v := range plain.Status {
		if plain.Status[v] != inst.Status[v] || plain.Energy[v] != inst.Energy[v] {
			t.Fatalf("node %d diverged under instrumentation", v)
		}
	}
}

func TestBreakdownSegmentProfile(t *testing.T) {
	// On sparse graphs the competition backoffs and the checking
	// announcements are the two major energy sinks (§5.1's two concerns),
	// each well above the LowDegreeMIS share; they account for the vast
	// majority of all energy.
	g := graph.Cycle(96)
	p := ParamsDefault(96, 2)
	_, c, k, l := noCDSegments(t, g, p, 3)
	comp, checks, low := total(c), total(k), total(l)
	if comp == 0 || checks == 0 {
		t.Fatal("empty breakdown")
	}
	if comp <= low || checks <= low {
		t.Errorf("lowdegree share %d not below competition %d and checks %d", low, comp, checks)
	}
	if comp+checks < 3*low {
		t.Errorf("competition+checks (%d) should dwarf lowdegree (%d)", comp+checks, low)
	}
	t.Logf("competition=%d checks=%d lowdegree=%d", comp, checks, low)
}
