package experiments

import (
	"context"
	"fmt"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/harness"
	"radiomis/internal/mis"
	"radiomis/internal/rng"
	"radiomis/internal/texttable"
)

// E14 sweep geometry. The zero-fault positions are pinned to an (n, trials)
// pair that E2 (CD-model algorithms) and E5 (no-CD algorithms) also sweep,
// so at equal Config.Seed the x = 0 rows of this experiment are bit-for-bit
// the corresponding E2/E5 points — the engine runs the identical simulation
// when the profile is zero. TestE14ZeroFaultRowsMatchBaselines enforces it.
func e14Scale(cfg Config, model string) (n, t int) {
	if model == "cd" {
		if cfg.Quick {
			return 256, 5 // E2 quick: ns {64,256,1024}, 5 trials
		}
		return 1024, 15 // E2 full: ns {…,1024,…}, 15 trials
	}
	if cfg.Quick {
		return 128, 3 // E5 quick: ns {32,64,128}, 3 trials
	}
	return 256, 8 // E5 full: ns {…,256,512}, 8 trials
}

// e14Algos maps each swept algorithm to the baseline experiment whose
// geometry its clean rows reuse ("cd" → E2 sizes, "nocd" → E5 sizes).
var e14Algos = []struct {
	name  string
	scale string
}{
	{"cd", "cd"},
	{"naive-cd", "cd"},
	{"nocd", "nocd"},
	{"naive-nocd", "nocd"},
}

// faultTrial builds a harness trial running algo on a fresh G(n,p) graph
// under the given fault profile, measuring both the usual cost metrics and
// the robustness outcomes. Success is the fault-tolerance criterion: the
// survivor-induced subgraph got a correct MIS (CheckSurvivors), which on
// clean runs coincides exactly with the full Check.
func faultTrial(n int, algo string, fp faults.Profile) harness.TrialFunc {
	return func(ctx context.Context, seed uint64) (harness.Metrics, error) {
		g := graph.Generate(graph.FamilyGNP, n, rng.New(seed))
		p := mis.ParamsDefault(g.N(), g.MaxDegree())
		res, err := mis.Run(algo, g, p, mis.RunOpts{Seed: seed, Ctx: ctx, Faults: fp})
		if err != nil {
			return nil, err
		}
		success := 1.0
		if res.CheckSurvivors(g) != nil {
			success = 0
		}
		m := harness.Metrics{
			"maxEnergy":  float64(res.MaxEnergy()),
			"avgEnergy":  res.AvgEnergy(),
			"rounds":     float64(res.Rounds),
			"success":    success,
			"violations": float64(res.IndependenceViolations(g)),
			"uncovered":  float64(res.UncoveredOut(g)),
			"crashed":    float64(res.CrashCount()),
		}
		if res.Faults != nil {
			m["restarts"] = float64(res.Faults.Restarts)
		} else {
			m["restarts"] = 0
		}
		return m, nil
	}
}

// e14Sweep runs one algorithm across a fault-parameter grid, building the
// profile for each x with mkProfile (x = 0 must map to the zero profile).
func e14Sweep(ctx context.Context, cfg Config, algo, scale string, xs []float64, mkProfile func(x float64) faults.Profile) (harness.Series, error) {
	n, t := e14Scale(cfg, scale)
	return harness.Sweep(ctx, xs, harness.Options{Trials: t, Seed: cfg.Seed},
		func(x float64) harness.TrialFunc {
			return faultTrial(n, algo, mkProfile(x))
		})
}

// e14Table renders one sweep family: a row per grid position, a
// success + max-energy column pair per algorithm.
func e14Table(xHeader string, xs []float64, algos []string, bySeries map[string]harness.Series) *texttable.Table {
	headers := []string{xHeader}
	for _, a := range algos {
		headers = append(headers, a+" success", a+" maxE")
	}
	t := texttable.New(headers...)
	for i, x := range xs {
		// %g keeps sub-millesimal grid values (e.g. crash rate 0.0005)
		// exact instead of rounding them into a neighboring row's label.
		row := []any{fmt.Sprintf("%g", x)}
		for _, a := range algos {
			pt := bySeries[a][i]
			row = append(row, pt.Agg.Mean("success"), pt.Agg.Max("maxEnergy"))
		}
		t.AddRow(row...)
	}
	return t
}

// e14Notes derives the cliff position (first grid value where the mean
// success rate falls below ½) and the energy inflation at the harshest
// grid value relative to the clean run, per algorithm.
func e14Notes(report *Report, kind string, xs []float64, algos []string, bySeries map[string]harness.Series) {
	for _, a := range algos {
		s := bySeries[a]
		cliff := -1.0
		for i, pt := range s {
			if pt.Agg.Mean("success") < 0.5 {
				cliff = xs[i]
				break
			}
		}
		if cliff >= 0 {
			report.Notes = append(report.Notes, fmt.Sprintf(
				"%s cliff (%s): success < 0.5 from %s=%g on", kind, a, kind, cliff))
		} else {
			report.Notes = append(report.Notes, fmt.Sprintf(
				"%s cliff (%s): none — success ≥ 0.5 across the whole grid", kind, a))
		}
		clean, worst := s[0].Agg.Max("maxEnergy"), s[len(s)-1].Agg.Max("maxEnergy")
		if clean > 0 {
			report.Notes = append(report.Notes, fmt.Sprintf(
				"%s energy inflation (%s): ×%.2f at %s=%g (max energy %g → %g)",
				kind, a, worst/clean, kind, xs[len(xs)-1], clean, worst))
		}
	}
}

// E14Robustness charts what the paper's clean-model guarantees are worth on
// a perturbed channel: success-rate cliffs and energy inflation of
// Algorithm 1 (cd), Algorithm 2 (nocd), and the Luby baselines under
// probabilistic message loss, an energy-budgeted jamming adversary, and
// crash faults. The x = 0 position of every sweep is the clean engine —
// bit-identical to the corresponding E2/E5 measurement at equal seed — so
// every curve is anchored to an already-validated baseline.
func E14Robustness(ctx context.Context, cfg Config) (*Report, error) {
	report := &Report{
		ID:    "E14",
		Title: "robustness: fault-injection cliffs and energy inflation",
		Claim: "§1.1 assumes a reliable synchronous channel; E14 measures how far each algorithm degrades when that assumption breaks (loss, jamming, crashes)",
	}

	// Loss sweep: all four algorithms. The naive Luby baselines lean on
	// every winner announcement arriving, so their cliff should come first.
	lossGrid := []float64{0, 0.05, 0.1, 0.2, 0.4}
	if cfg.Quick {
		lossGrid = []float64{0, 0.1, 0.4}
	}
	lossSeries := map[string]harness.Series{}
	var lossAlgos []string
	for _, a := range e14Algos {
		s, err := e14Sweep(ctx, cfg, a.name, a.scale, lossGrid, func(x float64) faults.Profile {
			return faults.Profile{Loss: x}
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: e14 loss/%s: %w", a.name, err)
		}
		lossSeries[a.name] = s
		lossAlgos = append(lossAlgos, a.name)
		report.AddSeries("loss/"+a.name, s)
	}
	report.Tables = append(report.Tables, e14Table("loss", lossGrid, lossAlgos, lossSeries))
	e14Notes(report, "loss", lossGrid, lossAlgos, lossSeries)

	// Jammer sweep: x is the adversary's round budget (threshold 2: it only
	// spends energy on rounds with real contention).
	jamGrid := []float64{0, 32, 128, 512, 2048}
	if cfg.Quick {
		jamGrid = []float64{0, 128, 2048}
	}
	jamAlgos := []string{"cd", "nocd"}
	jamSeries := map[string]harness.Series{}
	for _, algo := range jamAlgos {
		s, err := e14Sweep(ctx, cfg, algo, algo, jamGrid, func(x float64) faults.Profile {
			if x == 0 {
				return faults.Profile{}
			}
			return faults.Profile{Jammer: faults.Jammer{Budget: uint64(x), Threshold: 2}}
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: e14 jam/%s: %w", algo, err)
		}
		jamSeries[algo] = s
		report.AddSeries("jam/"+algo, s)
	}
	report.Tables = append(report.Tables, e14Table("jam budget", jamGrid, jamAlgos, jamSeries))
	e14Notes(report, "jam budget", jamGrid, jamAlgos, jamSeries)

	// Crash sweep: x is the per-awake-action hazard, crash-stop. Success
	// here is CheckSurvivors — the dead are exempt, the living must still
	// form an MIS of what remains.
	crashGrid := []float64{0, 0.0005, 0.002, 0.008}
	if cfg.Quick {
		crashGrid = []float64{0, 0.002, 0.008}
	}
	crashAlgos := []string{"cd", "nocd"}
	crashSeries := map[string]harness.Series{}
	for _, algo := range crashAlgos {
		s, err := e14Sweep(ctx, cfg, algo, algo, crashGrid, func(x float64) faults.Profile {
			return faults.Profile{Crash: faults.Crash{Rate: x}}
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: e14 crash/%s: %w", algo, err)
		}
		crashSeries[algo] = s
		report.AddSeries("crash/"+algo, s)
	}
	report.Tables = append(report.Tables, e14Table("crash rate", crashGrid, crashAlgos, crashSeries))
	e14Notes(report, "crash rate", crashGrid, crashAlgos, crashSeries)

	// Crash-restart: the same hazards but rebooting after 32 rounds (at
	// most 3 times). Restarted nodes re-enter the protocol mid-run, which
	// stresses the synchronous-start assumption the same way adversarial
	// wake-up does.
	restartSeries, err := e14Sweep(ctx, cfg, "cd", "cd", crashGrid, func(x float64) faults.Profile {
		if x == 0 {
			return faults.Profile{}
		}
		return faults.Profile{Crash: faults.Crash{Rate: x, RestartAfter: 32, MaxRestarts: 3}}
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: e14 crash-restart/cd: %w", err)
	}
	report.AddSeries("crash-restart/cd", restartSeries)
	rt := texttable.New("crash rate", "success", "maxE", "restarts", "crashed")
	for i, pt := range restartSeries {
		rt.AddRow(crashGrid[i], pt.Agg.Mean("success"), pt.Agg.Max("maxEnergy"),
			pt.Agg.Mean("restarts"), pt.Agg.Mean("crashed"))
	}
	report.Tables = append(report.Tables, rt)

	return report, nil
}
