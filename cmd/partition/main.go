// Command partition runs the paper's §2.2 partition algorithm and §3
// heuristics on a fault set and prints the full decision: the cutting set
// Ψ with formula (1) costs, the selected sequence, the per-subcube dead
// processors, and the utilization comparison against the maximum
// fault-free subcube baseline.
//
// Usage:
//
//	partition -n 5 -faults 3,5,16,24
package main

import (
	"flag"
	"fmt"
	"os"

	"hypersort/internal/cli"
	"hypersort/internal/cube"
	"hypersort/internal/maxsubcube"
	"hypersort/internal/partition"
	"hypersort/internal/plot"
)

func main() {
	var (
		n       = flag.Int("n", 5, "hypercube dimension")
		faultsF = flag.String("faults", "", "comma-separated faulty processor addresses")
		svgOut  = flag.String("svg", "", "also draw the partitioned cube as an SVG to this file")
	)
	flag.Parse()

	h, err := cli.Hypercube(*n)
	if err != nil {
		fatal(err)
	}
	list, err := cli.ParseNodeList(*faultsF)
	if err != nil {
		fatal(err)
	}
	faults := cube.NewNodeSet(list...)

	plan, err := partition.BuildPlan(*n, faults)
	if err != nil {
		fatal(err)
	}

	fmt.Println(plan)
	fmt.Printf("\ncutting set Ψ (formula (1) cost per sequence):\n")
	for _, d := range plan.Set.Sequences {
		cost, err := partition.ExtraCommCost(h, faults, d)
		if err != nil {
			fatal(err)
		}
		marker := " "
		if d.Equal(plan.Chosen) {
			marker = "*"
		}
		fmt.Printf("  %s %v  cost=%d\n", marker, d, cost)
	}

	if plan.HasDead {
		fmt.Printf("\nsubcubes (address space %s over dims %v):\n", "v", plan.Chosen)
		for v := 0; v < plan.NumSubcubes(); v++ {
			dead := plan.DeadOf(cube.NodeID(v))
			kind := "dangling"
			if faults.Has(dead) {
				kind = "faulty"
			}
			sc := plan.Split.SubcubeOf(cube.NodeID(v))
			fmt.Printf("  v=%s  subcube %s  dead processor %d (%s)\n",
				cube.FormatAddr(cube.NodeID(v), plan.Mincut()), sc.Format(h), dead, kind)
		}
	}

	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, []byte(plot.PartitionSVG(plan)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *svgOut)
	}

	sc, k := maxsubcube.Find(h, faults)
	fmt.Printf("\nbaseline (maximum fault-free subcube): %s, dimension %d, utilization %.1f%%\n",
		sc.Format(h), k, 100*maxsubcube.Utilization(h, faults))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partition:", err)
	os.Exit(1)
}
