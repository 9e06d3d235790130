// Command energytrace renders the awake schedule of a small MIS run as an
// ASCII timeline — one row per node, one column per round — making the
// sleeping energy model visible: `T` transmit, `L` listen, `.` sleep,
// `*` the round the node halted. The energy complexity of a node is simply
// the number of non-dot cells in its row.
//
// Beyond the timeline, the observability flags expose the structured view
// of the same run:
//
//   - -phases prints the per-phase energy/collision breakdown (where each
//     algorithm phase spends its awake rounds) plus the reception-outcome
//     totals;
//   - -jsonl FILE streams every round and halt as JSON Lines;
//   - -chrome FILE writes a Chrome trace-event file for chrome://tracing
//     or https://ui.perfetto.dev.
//
// Usage:
//
//	energytrace -n 12 -graph cycle -algo cd
//	energytrace -n 16 -graph gnp -algo naive-cd   # compare: rows fill up
//	energytrace -n 24 -graph gnp -algo nocd -phases -width 0
//	energytrace -n 12 -graph cycle -algo cd -chrome trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"radiomis/internal/graph"
	"radiomis/internal/mis"
	"radiomis/internal/obs"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "energytrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("energytrace", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 12, "number of nodes (keep small; one column per round)")
		family     = fs.String("graph", "cycle", "graph family")
		algo       = fs.String("algo", "cd", "algorithm: cd|beep|naive-cd|nocd")
		seed       = fs.Uint64("seed", 1, "random seed")
		width      = fs.Int("width", 120, "maximum rounds to render (0 disables the timeline)")
		phases     = fs.Bool("phases", false, "print the per-phase energy and collision breakdown")
		jsonlPath  = fs.String("jsonl", "", "write a JSON Lines event stream to this file")
		chromePath = fs.String("chrome", "", "write a Chrome trace-event file to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fam, err := graph.ParseFamily(*family)
	if err != nil {
		return err
	}
	g := graph.Generate(fam, *n, rng.New(*seed))
	p := mis.ParamsDefault(g.N(), g.MaxDegree())

	program, model, unaryOnly, err := selectAlgo(*algo, p)
	if err != nil {
		return err
	}

	// Assemble the observer chain: the timeline, breakdowns and exporters
	// all watch the same run.
	var observers radio.MultiObserver
	var tl *timeline
	if *width > 0 {
		tl = newTimeline(g.N(), *width)
		observers = append(observers, tl)
	}
	var breakdown *obs.PhaseBreakdown
	var counter *obs.Counter
	if *phases {
		breakdown = obs.NewPhaseBreakdown(g.N())
		counter = &obs.Counter{}
		observers = append(observers, breakdown, counter)
	}
	var jw *obs.JSONLWriter
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jw = obs.NewJSONLWriter(f)
		observers = append(observers, jw)
	}
	var ct *obs.ChromeTracer
	if *chromePath != "" {
		f, err := os.Create(*chromePath)
		if err != nil {
			return err
		}
		defer f.Close()
		ct = obs.NewChromeTracer(f)
		observers = append(observers, ct)
	}

	cfg := radio.Config{Model: model, Seed: *seed, UnaryOnly: unaryOnly}
	if len(observers) > 0 {
		cfg.Observer = observers
	}
	rr, err := radio.Run(g, cfg, program)
	if err != nil {
		return err
	}
	if jw != nil {
		if err := jw.Flush(); err != nil {
			return fmt.Errorf("jsonl export: %w", err)
		}
	}
	if ct != nil {
		if err := ct.Close(); err != nil {
			return fmt.Errorf("chrome export: %w", err)
		}
	}

	fmt.Fprintf(out, "%s  algo=%s model=%s seed=%d\n", g, *algo, model, *seed)
	if tl != nil {
		tl.render(out, rr)
	}
	fmt.Fprintf(out, "\nmax energy %d, avg %.1f, rounds %d\n",
		maxOf(rr.Energy), avg(rr.Energy), rr.Rounds)
	inSet := make([]bool, g.N())
	for v, o := range rr.Outputs {
		inSet[v] = mis.Status(o) == mis.StatusInMIS
	}
	if err := graph.CheckMIS(g, inSet); err != nil {
		fmt.Fprintf(out, "result: INVALID (%v)\n", err)
	} else {
		fmt.Fprintf(out, "result: valid MIS of size %d\n", graph.SetSize(inSet))
	}

	if *phases {
		renderPhases(out, breakdown, counter)
	}
	if *jsonlPath != "" {
		fmt.Fprintf(out, "\njsonl event stream written to %s\n", *jsonlPath)
	}
	if *chromePath != "" {
		fmt.Fprintf(out, "chrome trace written to %s (open in chrome://tracing)\n", *chromePath)
	}
	return nil
}

// selectAlgo maps an -algo value to the program to run, the collision
// model, and whether the engine must enforce unary transmissions. The
// beeping model only carries "beep"/"no beep" (§3.1), so it runs with
// UnaryOnly set: a program that tried to transmit a multi-bit payload
// would fail instead of silently exceeding the model.
func selectAlgo(algo string, p mis.Params) (radio.Program, radio.Model, bool, error) {
	switch algo {
	case "cd":
		return mis.CDProgram(p), radio.ModelCD, false, nil
	case "beep":
		return mis.CDProgram(p), radio.ModelBeep, true, nil
	case "naive-cd":
		return mis.NaiveCDProgram(p), radio.ModelCD, false, nil
	case "nocd":
		return mis.NoCDProgram(p), radio.ModelNoCD, false, nil
	}
	return nil, 0, false, fmt.Errorf("unknown algorithm %q (supported: cd, beep, naive-cd, nocd)", algo)
}

// timeline is an observer that paints the awake schedule of the first
// rounds of a run, one row per node and one cell per round.
type timeline struct {
	rows [][]byte
}

func newTimeline(n, width int) *timeline {
	t := &timeline{rows: make([][]byte, n)}
	for v := range t.rows {
		t.rows[v] = []byte(strings.Repeat(".", width))
	}
	return t
}

// ObserveRound implements radio.Observer.
func (t *timeline) ObserveRound(s *radio.RoundStats) {
	for _, tx := range s.Transmitters {
		if row := t.rows[tx.ID]; s.Round < uint64(len(row)) {
			row[s.Round] = 'T'
		}
	}
	for _, rx := range s.Listeners {
		if row := t.rows[rx.ID]; s.Round < uint64(len(row)) {
			row[s.Round] = 'L'
		}
	}
}

// ObserveHalt implements radio.Observer.
func (t *timeline) ObserveHalt(id int, _ int64, _ uint64, round uint64) {
	if row := t.rows[id]; round < uint64(len(row)) && row[round] == '.' {
		row[round] = '*'
	}
}

// render prints the painted rows, cut to the rounds the run lasted.
func (t *timeline) render(out io.Writer, rr *radio.Result) {
	rounds := uint64(0)
	if len(t.rows) > 0 {
		rounds = min(rr.Rounds, uint64(len(t.rows[0])))
	}
	fmt.Fprintf(out, "T=transmit L=listen .=sleep *=halt   (%d of %d rounds shown)\n\n", rounds, rr.Rounds)
	for v, row := range t.rows {
		status := mis.Status(rr.Outputs[v])
		fmt.Fprintf(out, "node %3d %-9s E=%-4d |%s|\n", v, status, rr.Energy[v], row[:rounds])
	}
}

// renderPhases prints where the run's energy went, phase by phase, plus the
// physical reception outcomes the engine observed.
func renderPhases(out io.Writer, b *obs.PhaseBreakdown, c *obs.Counter) {
	var total uint64
	for _, p := range b.Phases() {
		total += p.TotalAwake()
	}
	fmt.Fprintf(out, "\nphase breakdown (awake rounds by phase label; %d total):\n", total)
	fmt.Fprintf(out, "%-22s %10s %7s %10s %10s %10s\n",
		"phase", "awake", "share", "transmits", "listens", "collisions")
	for _, p := range b.Phases() {
		name := p.Name
		if name == "" {
			name = "(unlabeled)"
		}
		share := 0.0
		if total > 0 {
			share = float64(p.TotalAwake()) / float64(total)
		}
		fmt.Fprintf(out, "%-22s %10d %6.1f%% %10d %10d %10d\n",
			name, p.TotalAwake(), 100*share, p.TotalTransmits(), p.TotalListens(), p.TotalCollisions())
	}
	fmt.Fprintf(out, "\nreception outcomes over %d active rounds: %d successes, %d collisions, %d silent listens\n",
		c.Rounds, c.Successes, c.Collisions, c.Silences)
}

func maxOf(xs []uint64) uint64 {
	var m uint64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func avg(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s uint64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
