// Command ftsort sorts a synthetic workload on a simulated faulty
// hypercube with the paper's fault-tolerant algorithm and reports the
// partition decisions and simulated cost.
//
// Usage:
//
//	ftsort -n 6 -faults 3,17,40 -m 32000 [-dist uniform] [-model partial]
//	       [-seed 1] [-tc 1 -tsr 1 -startup 0] [-proto full|half]
//	       [-distribute] [-trace N] [-steps] [-estimate] [-q]
//
// The -steps flag prints every intermediate machine state (the paper's
// Figure 6 walkthrough); keep -m small when using it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"hypersort/internal/cli"
	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
	"hypersort/internal/trace"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

func main() {
	var (
		n       = flag.Int("n", 6, "hypercube dimension (2^n processors)")
		faultsF = flag.String("faults", "", "comma-separated faulty processor addresses")
		linksF  = flag.String("link-faults", "", "comma-separated dead links as endpoint pairs, e.g. 0-1,5-7")
		m       = flag.Int("m", 32000, "number of keys to sort")
		dist    = flag.String("dist", "uniform", "key distribution: uniform, gaussian, sorted, reverse, nearly-sorted, few-distinct, zipf-lite")
		model   = flag.String("model", "partial", "fault model: partial (links survive) or total (links die)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		tc      = flag.Int64("tc", 1, "cost of one comparison (t_c)")
		tsr     = flag.Int64("tsr", 1, "cost of one key per hop (t_s/r)")
		startup = flag.Int64("startup", 0, "per-hop message startup cost")
		est     = flag.Bool("estimate", false, "also print the paper's closed-form worst-case estimate")
		quiet   = flag.Bool("q", false, "print only the stats line")
		proto   = flag.String("proto", "full", "compare-exchange protocol: full (one-message block swap) or half (the paper's two-round Step 7)")
		distrib = flag.Bool("distribute", false, "include host scatter/gather of keys in the simulated time")
		traceN  = flag.Int("trace", 0, "print the first N simulator events and a per-node activity summary")
		steps   = flag.Bool("steps", false, "print each intermediate state (the paper's Figure 6 walkthrough)")
		inFile  = flag.String("in", "", "read keys from this file (.txt: one integer per line; .bin: little-endian int64) instead of generating a workload")
		outFile = flag.String("out", "", "write the sorted keys to this file (same formats)")
	)
	flag.Parse()

	faults, err := cli.ParseNodeList(*faultsF)
	if err != nil {
		fatal(err)
	}
	linkSet, err := cli.ParseEdgeList(*linksF)
	if err != nil {
		fatal(err)
	}
	var linkPairs [][2]cube.NodeID
	for _, e := range linkSet.Sorted() {
		linkPairs = append(linkPairs, [2]cube.NodeID{e.A, e.B})
	}
	fm, err := cli.ParseFaultModel(*model)
	if err != nil {
		fatal(err)
	}
	protocol, err := cli.ParseProtocol(*proto)
	if err != nil {
		fatal(err)
	}

	// One plan, one machine and one run serve every flag combination:
	// -steps only adds the step hook to the run the other flags built.
	var rec *trace.Recorder
	var hook machine.TraceFunc
	if *traceN > 0 {
		rec = trace.NewRecorder()
		hook = rec.Record
	}
	plan, mach, err := engine.Prepare(engine.Config{
		Dim:        *n,
		Faults:     faults,
		LinkFaults: linkPairs,
		Model:      fm,
		Cost:       machine.CostModel{Compare: machine.Time(*tc), Elem: machine.Time(*tsr), Startup: machine.Time(*startup)},
	}, hook)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		fmt.Printf("Q_%d, %d fault(s) %v, fault model %s\n", *n, len(faults), faults, *model)
		fmt.Printf("partition: mincut=%d |Ψ|=%d chosen=%v extra-comm=%d\n",
			plan.Mincut(), len(plan.Set.Sequences), []int(plan.Chosen), plan.ExtraComm)
		fmt.Printf("working processors: %d  dangling: %v  utilization: %.1f%%\n",
			plan.Working(), plan.Dangling, 100*plan.Utilization())
	}

	var keys []sortutil.Key
	if *inFile != "" {
		keys, err = readKeys(*inFile)
		if err != nil {
			fatal(err)
		}
	} else {
		keys, err = workload.Generate(workload.Kind(*dist), *m, xrand.New(*seed))
		if err != nil {
			fatal(err)
		}
	}
	opts := core.Options{Protocol: protocol, AccountDistribution: *distrib}
	var states *core.StateRecorder
	if *steps {
		states = core.NewStateRecorder()
		opts.StepHook = states.Record
	}
	sorted, stats, err := core.FTSortOpt(mach, plan, keys, opts)
	if err != nil {
		fatal(err)
	}
	if states != nil {
		for _, snap := range states.Snapshots() {
			fmt.Print(snap.Format())
		}
	}
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		fatal(fmt.Errorf("internal error: output not sorted"))
	}
	fmt.Printf("sorted %d keys: time=%d messages=%d key-hops=%d comparisons=%d\n",
		len(sorted), stats.Makespan, stats.Messages, stats.KeyHops, stats.Comparisons)
	if *outFile != "" {
		if err := writeKeys(*outFile, sorted); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *outFile)
	}
	if rec != nil {
		events := rec.Events()
		fmt.Println()
		fmt.Print(trace.Timeline(events, *traceN))
		fmt.Println()
		fmt.Print(trace.Analyze(events).Summary())
	}
	if *est {
		t, err := core.CostEstimate(*m, plan.Cube.Dim(), plan.Mincut(), plan.HasDead, mach.Cost())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("closed-form worst-case estimate: %d (measured/estimate = %.2f)\n",
			t, float64(stats.Makespan)/float64(t))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftsort:", err)
	os.Exit(1)
}
