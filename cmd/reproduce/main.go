// Command reproduce regenerates the paper's evaluation: Table 1, Table 2,
// the four Figure 7 panels and the ablation studies E8-E16. With no
// subcommand it writes every artefact (text, JSON and SVG) under an
// output directory together with a summary of the shape checks; a
// subcommand prints one artefact with its own parameters.
//
// Usage:
//
//	reproduce [-out results] [-seed 1992] [-quick]
//	reproduce table1 [-trials 10000] [-seed 1992] [-min-n 3] [-max-n 6] [-json]
//	reproduce table2 [-trials 10000] [-seed 1992] [-min-n 3] [-max-n 6] [-json]
//	reproduce fig7 [-n 6] [-ms 3200,32000,320000] [-trials 5] [-seed 1992]
//	               [-model partial|total] [-tc 1] [-tsr 1] [-check] [-json] [-svg file]
//	reproduce ablations [-seed 1992] [-which e8,e9,e10,e11,e12,e13,e14,e15,e16]
//
// -quick cuts trial counts for a fast smoke run; the defaults match the
// paper's 10000-placement methodology and finish in well under a minute.
// fig7 -n 6, 5, 3 and 4 give panels (a), (b), (c) and (d); -check
// verifies the paper's who-wins orderings at the largest M and exits 2
// when one fails. The ablations are the design-choice studies of
// DESIGN.md's experiment index, run at the full run's parameters.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"hypersort/internal/cli"
	"hypersort/internal/experiments"
	"hypersort/internal/machine"
	"hypersort/internal/plot"
)

// params is what the experiments calls read. The full run derives it
// from -seed and -quick; a subcommand sets it from its flags.
type params struct {
	seed        uint64
	trials      int // partition placements per (n, r) in Tables 1-2; E14 takes at most 400
	minN, maxN  int // Tables 1-2 dimension range; 0 keeps the default 3..6
	availTrials int // E15 placements per failure rate
	fig7        experiments.Fig7Config
}

// fullParams are the full run's parameters.
func fullParams(seed uint64, quick bool) params {
	p := params{seed: seed, trials: 10000, availTrials: 40,
		fig7: experiments.Fig7Config{TrialsPerPoint: 5, Seed: seed}}
	if quick {
		p.trials, p.availTrials, p.fig7.TrialsPerPoint = 300, 8, 2
	}
	return p
}

// An artefact is one output of the evaluation: the experiments call
// that computes it with its formatter, the subcommand that prints it,
// and the files the full run writes it to. The subcommands and the full
// run share this table, so each parameter list is written once.
type artefact struct {
	cmd     string // the subcommand that prints it
	id      string // its ablations -which name
	step    string // the full run's progress line; "" when the previous one covers it
	title   string // the subcommand's heading; a Figure 7 panel's chart title
	n       int    // Figure 7 panel dimension
	file    string // output stem under -out: <file>.txt, and .json when json is set
	json    bool
	summary string // the full run's SUMMARY.md line (Figure 7 panels report their shape check)
	run     func(p params) (rows any, text string, err error)
}

// artefacts is the evaluation in the order the full run writes it.
var artefacts = []artefact{
	{cmd: "table1", step: "Table 1 (mincut distribution)", title: "Table 1 — distribution of mincut values",
		file: "table1", json: true, summary: "Table 1: written (anchor: n=6 r=5 mincut-3 share ~93.85% in the paper)",
		run: func(p params) (any, string, error) {
			return render(experiments.FormatTable1)(experiments.Table1(experiments.Table1Config{
				MinN: p.minN, MaxN: p.maxN, Trials: p.trials, Seed: p.seed}))
		}},
	{cmd: "table2", step: "Table 2 (processor utilization)",
		title: "Table 2 — processor utilization, ours vs maximum fault-free subcube",
		file:  "table2", json: true, summary: "Table 2: written (anchors: n=6 r=4 -> 100%/93.3% ours, 53.3%/26.6% baseline)",
		run: func(p params) (any, string, error) {
			return render(experiments.FormatTable2)(experiments.Table2(experiments.Table2Config{
				MinN: p.minN, MaxN: p.maxN, Trials: p.trials, Seed: p.seed}))
		}},
	// Paper labels: (a)=Q6, (b)=Q5, (c)=Q3, (d)=Q4.
	panel("a", 6), panel("b", 5), panel("c", 3), panel("d", 4),
	{cmd: "ablations", id: "e8", step: "Ablations (E8-E16)", title: "E8 — closed-form cost model vs simulated makespan",
		file: "e8_costmodel", run: func(p params) (any, string, error) {
			return render(experiments.FormatCostAgreement)(experiments.CostAgreement(p.seed))
		}},
	{cmd: "ablations", id: "e9", title: "E9 — formula (1) selection vs worst member of Ψ (Q_6)",
		file: "e9_heuristic", run: func(p params) (any, string, error) {
			return render(experiments.FormatHeuristic)(experiments.HeuristicValue(6, 4000, 20, p.seed))
		}},
	{cmd: "ablations", id: "e10", title: "E10 — partial vs total fault model (Q_5)",
		file: "e10_faultmodel", run: func(p params) (any, string, error) {
			return render(experiments.FormatFaultModel)(experiments.FaultModelComparison(5, 4000, 10, p.seed))
		}},
	{cmd: "ablations", id: "e11", title: "E11 — full-block vs half-exchange protocol (Q_5)",
		file: "e11_protocol", run: func(p params) (any, string, error) {
			return render(experiments.FormatProtocol)(experiments.ProtocolComparison(5, 4000, 5, p.seed))
		}},
	{cmd: "ablations", id: "e12", title: "E12 — distribution overhead the cost model excludes (Q_6, r=3)",
		file: "e12_distribution", run: func(p params) (any, string, error) {
			return render(experiments.FormatDistribution)(experiments.DistributionOverhead(6, 3, []int{3200, 32000, 320000}, p.seed))
		}},
	{cmd: "ablations", id: "e13", title: "E13 — strong scaling of the fault-free distributed sort (M=64000)",
		file: "e13_speedup", run: func(p params) (any, string, error) {
			return render(experiments.FormatSpeedup)(experiments.Speedup(64000, 8, p.seed, experiments.DefaultSpeedupCost()))
		}},
	{cmd: "ablations", id: "e14", title: "E14 — beyond the r <= n-1 guarantee (Q_5, sampled placements)",
		file: "e14_beyond", run: func(p params) (any, string, error) {
			return render(experiments.FormatBeyond)(experiments.BeyondGuarantee(5, 12, min(p.trials, 400), p.seed))
		}},
	{cmd: "ablations", id: "e15", title: "E15 — mid-run failures: restart-policy cost vs failure rate (Q_5)",
		file: "e15_availability", run: func(p params) (any, string, error) {
			return render(experiments.FormatAvailability)(experiments.Availability(5, 4000, p.availTrials, nil, p.seed))
		}},
	{cmd: "ablations", id: "e16", title: "E16 — dead links: detour cost on an otherwise healthy Q_5",
		file: "e16_linkfaults", summary: "Ablations E8-E16: written", run: func(p params) (any, string, error) {
			return render(experiments.FormatLinkFaults)(experiments.LinkFaults(5, 4000, 4, 10, p.seed))
		}},
}

// panel is Figure 7's panel on Q_n. Its call reads the dimension from
// p.fig7.N: the full run sets it to n, the fig7 subcommand to -n.
func panel(letter string, n int) artefact {
	return artefact{cmd: "fig7", step: fmt.Sprintf("Figure 7(%s) (n=%d)", letter, n),
		title: fmt.Sprintf("Figure 7(%s): execution time vs M on Q_%d (log-log)", letter, n),
		n:     n, file: "fig7" + letter, json: true,
		run: func(p params) (any, string, error) {
			return render(experiments.FormatFig7)(experiments.Fig7(p.fig7))
		}}
}

// render pairs an experiments call's rows with its formatter's text.
func render[T any](format func(T) string) func(T, error) (any, string, error) {
	return func(rows T, err error) (any, string, error) {
		if err != nil {
			return nil, "", err
		}
		return rows, format(rows), nil
	}
}

// errShape makes fig7 -check exit 2 once the violations are printed.
var errShape = errors.New("shape check failed")

// commands are the subcommands; "" is the full run. Each declares its
// flags and returns the action that prints its artefacts once they are
// parsed.
var commands = map[string]func(fs *flag.FlagSet, as []artefact) func(w io.Writer) error{
	"":          full,
	"table1":    table,
	"table2":    table,
	"fig7":      fig7,
	"ablations": ablations,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it writes to stdout and stderr and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	name := "reproduce"
	var sub string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
		name += " " + sub
	}
	cmd := commands[sub]
	if cmd == nil {
		return fatal(stderr, "reproduce", fmt.Errorf("unknown subcommand %q (want table1, table2, fig7 or ablations)", sub), 2)
	}
	var as []artefact
	for _, a := range artefacts {
		if sub == "" || a.cmd == sub {
			as = append(as, a)
		}
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	act := cmd(fs, as)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return 0
		}
		return fatal(stderr, name, err, 2)
	}
	if fs.NArg() > 0 {
		return fatal(stderr, name, fmt.Errorf("unexpected argument %q", fs.Arg(0)), 2)
	}
	if err := act(stdout); errors.Is(err, errShape) {
		return 2
	} else if err != nil {
		return fatal(stderr, name, err, 1)
	}
	return 0
}

// fatal reports err on one line and returns the exit status code.
func fatal(stderr io.Writer, name string, err error, code int) int {
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return code
}

// full writes every artefact under -out and a summary of the shape checks.
func full(fs *flag.FlagSet, as []artefact) func(io.Writer) error {
	out := fs.String("out", "results", "output directory")
	seed := fs.Uint64("seed", 1992, "random seed")
	quick := fs.Bool("quick", false, "reduced trial counts for a fast smoke run")
	return func(w io.Writer) error {
		p := fullParams(*seed, *quick)
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		write := func(name string, data []byte) error {
			return os.WriteFile(filepath.Join(*out, name), data, 0o644)
		}
		var summary strings.Builder
		summary.WriteString("# Reproduction summary\n\n")
		fmt.Fprintf(&summary, "seed %d, %d partition trials, %d placements per figure point\n\n", p.seed, p.trials, p.fig7.TrialsPerPoint)
		for _, a := range as {
			if a.step != "" {
				fmt.Fprintln(w, "reproducing:", a.step)
			}
			p.fig7.N = a.n
			rows, text, err := a.run(p)
			if err != nil {
				return err
			}
			if err := write(a.file+".txt", []byte(text)); err != nil {
				return err
			}
			if a.json {
				var data bytes.Buffer
				if err := writeJSON(&data, rows); err != nil {
					return err
				}
				if err := write(a.file+".json", data.Bytes()); err != nil {
					return err
				}
			}
			if series, ok := rows.([]experiments.Fig7Series); ok {
				if err := write(a.file+".svg", []byte(plot.Fig7SVG(series, a.title))); err != nil {
					return err
				}
				letter := strings.TrimPrefix(a.file, "fig7")
				if violations := experiments.CheckFig7Shape(series); len(violations) == 0 {
					fmt.Fprintf(&summary, "- Figure 7(%s): shape check PASSED (all paper orderings hold at the largest M)\n", letter)
				} else {
					fmt.Fprintf(&summary, "- Figure 7(%s): shape check FAILED: %v\n", letter, violations)
				}
			}
			if a.summary != "" {
				fmt.Fprintf(&summary, "- %s\n", a.summary)
			}
		}
		if err := write("SUMMARY.md", []byte(summary.String())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "\nall artifacts written to %s/\n%s", *out, summary.String())
		return err
	}
}

// table prints Table 1 or Table 2; both take the same flags.
func table(fs *flag.FlagSet, as []artefact) func(io.Writer) error {
	var p params
	fs.IntVar(&p.trials, "trials", 10000, "random fault placements per (n, r)")
	fs.Uint64Var(&p.seed, "seed", 1992, "random seed")
	fs.IntVar(&p.minN, "min-n", 3, "smallest cube dimension")
	fs.IntVar(&p.maxN, "max-n", 6, "largest cube dimension")
	asJSON := fs.Bool("json", false, "emit rows as JSON instead of a table")
	return func(w io.Writer) error {
		rows, text, err := as[0].run(p)
		if err != nil {
			return err
		}
		if *asJSON {
			return writeJSON(w, rows)
		}
		_, err = fmt.Fprintf(w, "%s (%d trials per row, seed %d)\n\n%s", as[0].title, p.trials, p.seed, text)
		return err
	}
}

// fig7 prints one Figure 7 panel, optionally as JSON or an SVG chart.
func fig7(fs *flag.FlagSet, as []artefact) func(io.Writer) error {
	var (
		n      = fs.Int("n", 6, "cube dimension of the panel")
		msF    = fs.String("ms", "", "comma-separated key counts (default: the paper's 3200..320000)")
		trials = fs.Int("trials", 5, "fault placements averaged per point")
		seed   = fs.Uint64("seed", 1992, "random seed")
		model  = fs.String("model", "partial", "fault model: partial or total")
		tc     = fs.Int64("tc", 1, "cost of one comparison (t_c)")
		tsr    = fs.Int64("tsr", 1, "cost of one key per hop (t_s/r)")
		check  = fs.Bool("check", false, "verify the paper's who-wins orderings at the largest M")
		asJSON = fs.Bool("json", false, "emit series as JSON instead of a table")
		svgOut = fs.String("svg", "", "also write the panel as an SVG chart to this file")
	)
	return func(w io.Writer) error {
		ms, err := cli.ParseIntList(*msF)
		if err != nil {
			return err
		}
		fm, err := cli.ParseFaultModel(*model)
		if err != nil {
			return err
		}
		// Every panel entry runs the same call; the flags pick the panel.
		rows, text, err := as[0].run(params{fig7: experiments.Fig7Config{N: *n, Ms: ms, TrialsPerPoint: *trials,
			Seed: *seed, Model: fm, Cost: machine.CostModel{Compare: machine.Time(*tc), Elem: machine.Time(*tsr)}}})
		if err != nil {
			return err
		}
		series := rows.([]experiments.Fig7Series)
		if *svgOut != "" {
			svg := plot.Fig7SVG(series, fmt.Sprintf("Figure 7, n=%d (simulated time vs M, log-log)", *n))
			if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", *svgOut)
		}
		if *asJSON {
			return writeJSON(w, series)
		}
		fmt.Fprintf(w, "Figure 7 panel, n=%d (simulated time units; thin = ours with r faults, thick = fault-free baseline)\n\n%s", *n, text)
		if !*check {
			return nil
		}
		violations := experiments.CheckFig7Shape(series)
		if len(violations) == 0 {
			fmt.Fprintln(w, "\nshape check: all of the paper's orderings hold at the largest M")
			return nil
		}
		fmt.Fprintln(w, "\nshape check violations:")
		for _, v := range violations {
			fmt.Fprintln(w, "  -", v)
		}
		return errShape
	}
}

// ablations prints the studies -which names, in E8-E16 order, at the
// full run's parameters. A -which name that is no study, an empty one
// included, is a bad flag value.
func ablations(fs *flag.FlagSet, as []artefact) func(io.Writer) error {
	seed := fs.Uint64("seed", 1992, "random seed")
	want := map[string]bool{}
	for _, a := range as {
		want[a.id] = true
	}
	fs.Func("which", "comma-separated studies to run (default e8,e9,e10,e11,e12,e13,e14,e15,e16)", func(list string) error {
		clear(want)
		for _, id := range strings.Split(list, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if !slices.ContainsFunc(as, func(a artefact) bool { return a.id == id }) {
				return fmt.Errorf("unknown study %q (want e8 to e16)", id)
			}
			want[id] = true
		}
		return nil
	})
	return func(w io.Writer) error {
		for _, a := range as {
			if !want[a.id] {
				continue
			}
			_, text, err := a.run(fullParams(*seed, false))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\n%s\n", a.title, text)
		}
		return nil
	}
}

// writeJSON writes an artefact's rows as indented JSON, to a file or stdout.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
