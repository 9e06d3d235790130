// Command radiomis runs one of the paper's MIS algorithms on a generated
// radio network and reports the outcome: validity, set size, worst/average
// energy, and round count.
//
// Usage:
//
//	radiomis -algo cd -graph gnp -n 1024 -seed 7
//	radiomis -algo nocd -graph unitdisk -n 256 -trials 5
//	radiomis -algo cd -graph grid -n 400 -v      # per-node dump
//	radiomis -algo cd -n 512 -faults loss=0.2,crash=0.01,restart=16
//	radiomis -algo cd -n 512 -trace run.json     # span timeline for chrome://tracing
//
// The `schedule` subcommand peels a conflict graph into independent
// execution batches by iterated MIS:
//
//	radiomis schedule -graph gnp -n 512 -seed 7
//	radiomis schedule -algo cd -n 128 -check     # radio layers, re-verified
//	radiomis schedule -n 256 -json               # full plan + edges on stdout
//
// Algorithms: cd, beep, nocd, lowdegree, linear, naive-cd, naive-nocd,
// unknown-delta. Graphs: gnp, unitdisk, grid, tree, hypercube, clique,
// cycle, star, lowerbound, prefattach.
//
// With -faults, runs are perturbed by the internal/faults profile (keys:
// loss, noise, jam, jam-threshold, jam-prob, crash, restart, max-restarts,
// wake-spread) and validity is judged on the surviving subgraph. A run cut
// short by -timeout or Ctrl-C exits with status 2 and a distinct message.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"radiomis/internal/faults"
	"radiomis/internal/graph"
	"radiomis/internal/logx"
	"radiomis/internal/mis"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
	"radiomis/internal/trace"
)

func main() {
	err := run(os.Args[1:])
	switch {
	case err == nil:
	case errors.Is(err, radio.ErrAborted):
		fmt.Fprintln(os.Stderr, "radiomis: run aborted before completing (timeout or interrupt):", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "radiomis:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// Subcommand dispatch; bare flags keep their historical meaning (one
	// algorithm run), `radiomis schedule ...` plans batch schedules.
	if len(args) > 0 && args[0] == "schedule" {
		return runSchedule(args[1:])
	}
	fs := flag.NewFlagSet("radiomis", flag.ContinueOnError)
	var (
		algo     = fs.String("algo", "cd", "algorithm: cd|beep|nocd|lowdegree|naive-cd|naive-nocd|unknown-delta")
		family   = fs.String("graph", "gnp", "graph family (gnp, unitdisk, grid, tree, hypercube, clique, cycle, star, lowerbound, prefattach)")
		n        = fs.Int("n", 256, "approximate number of nodes")
		seed     = fs.Uint64("seed", 1, "random seed (graph and run are deterministic in it)")
		trialsN  = fs.Int("trials", 1, "number of runs over distinct seeds")
		paper    = fs.Bool("paper-params", false, "use the paper's conservative constants (slow)")
		faultStr = fs.String("faults", "", "fault profile spec, e.g. loss=0.1,jam=64,crash=0.005,restart=16")
		timeout  = fs.Duration("timeout", 0, "abort runs that exceed this wall-clock budget (0 = none)")
		verbose  = fs.Bool("v", false, "print per-node status and energy")
		logLevel = fs.String("log-level", "warn", "log level: debug, info, warn, error")
		logFmt   = fs.String("log-format", "text", "log format: text or json")
		traceOut = fs.String("trace", "", "write a Chrome trace of the run's spans to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := logx.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	format, err := logx.ParseFormat(*logFmt)
	if err != nil {
		return err
	}
	log := logx.New(os.Stderr, level, format)

	fam, err := graph.ParseFamily(*family)
	if err != nil {
		return err
	}
	if err := checkAlgorithm(*algo); err != nil {
		return err
	}
	fp, err := faults.ParseSpec(*faultStr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Tracing is opt-in on the CLI and out-of-band: results are
	// bit-identical with or without -trace.
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(0)
		ctx = trace.WithTracer(ctx, tracer)
	}

	for trial := 0; trial < *trialsN; trial++ {
		trialSeed := rng.Mix(*seed, uint64(trial))
		g := graph.Generate(fam, *n, rng.New(trialSeed))
		p := mis.ParamsDefault(g.N(), g.MaxDegree())
		if *paper {
			p = mis.ParamsPaper(g.N(), g.MaxDegree())
		}
		tctx, sp := trace.Start(ctx, "radiomis.trial",
			trace.A("trial", trial), trace.A("algo", *algo), trace.A("n", g.N()))
		log.DebugContext(tctx, "trial starting", "trial", trial, "algo", *algo, "n", g.N(), "seed", trialSeed)
		res, err := mis.Run(*algo, g, p, mis.RunOpts{Seed: trialSeed, Ctx: tctx, Faults: fp})
		sp.End()
		if err != nil {
			return err
		}
		validity := "VALID"
		check := res.Check(g)
		if !fp.IsZero() {
			check = res.CheckSurvivors(g)
		}
		if check != nil {
			validity = fmt.Sprintf("INVALID (%v)", check)
			log.Warn("run produced an invalid MIS", "trial", trial, "algo", *algo, "error", check.Error())
		}
		fmt.Printf("trial %d: %s  algo=%s  |MIS|=%d  maxEnergy=%d  avgEnergy=%.1f  rounds=%d  %s\n",
			trial, g, *algo, res.SetSize(), res.MaxEnergy(), res.AvgEnergy(), res.Rounds, validity)
		if res.Faults != nil {
			fmt.Printf("  faults: %s  lost=%d noised=%d jams=%d crashed=%d restarts=%d\n",
				fp, res.Faults.Lost, res.Faults.Noised, res.Faults.Jams, res.CrashCount(), res.Faults.Restarts)
		}
		if *verbose {
			for v := range res.Status {
				fmt.Printf("  node %4d  %-9s energy=%d\n", v, res.Status[v], res.Energy[v])
			}
		}
	}
	if tracer != nil {
		if err := writeTrace(*traceOut, tracer); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		log.Info("trace written", "path", *traceOut, "spans", len(tracer.Spans()))
	}
	return nil
}

// writeTrace dumps the tracer's spans as a Chrome trace-event file
// (loadable in chrome://tracing or ui.perfetto.dev).
func writeTrace(path string, tracer *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tracer.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkAlgorithm rejects names the mis registry does not know — the same
// registry mis.Run and the daemon's /v1/algorithms endpoint use, so the
// CLI's accepted names can never drift from theirs.
func checkAlgorithm(name string) error {
	if !mis.KnownAlgorithm(name) {
		return fmt.Errorf("unknown algorithm %q (known: %s)", name, strings.Join(mis.Algorithms(), ", "))
	}
	return nil
}
