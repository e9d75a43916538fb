// Command diagnose simulates PMC system-level fault diagnosis on a
// hypercube: every processor tests its neighbors (faulty testers lie
// arbitrarily), and the syndrome is decoded back to the fault set —
// the off-line step the paper assumes has happened before sorting.
//
// Usage:
//
//	diagnose -n 6 -faults 5,40,61 [-seed 7] [-show-syndrome]
package main

import (
	"flag"
	"fmt"
	"os"

	"hypersort/internal/cli"
	"hypersort/internal/cube"
	"hypersort/internal/diagnosis"
	"hypersort/internal/xrand"
)

func main() {
	var (
		n        = flag.Int("n", 6, "hypercube dimension")
		faultsF  = flag.String("faults", "", "true faulty processor addresses (comma-separated)")
		seed     = flag.Uint64("seed", 7, "seed for faulty testers' arbitrary replies")
		showSynd = flag.Bool("show-syndrome", false, "print every failing test result")
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
	if len(faults) > *n {
		fatal(fmt.Errorf("%d faults exceed the one-step diagnosability bound t = n = %d", len(faults), *n))
	}

	syndrome := diagnosis.Collect(h, faults, xrand.New(*seed))
	if *showSynd {
		fmt.Println("failing tests (tester -> tested):")
		for u := cube.NodeID(0); u < cube.NodeID(h.Size()); u++ {
			for d := 0; d < h.Dim(); d++ {
				if syndrome.Result(u, d) {
					fmt.Printf("  %d -> %d\n", u, h.Neighbor(u, d))
				}
			}
		}
	}

	found, err := diagnosis.Diagnose(h, syndrome, *n)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("true faults:      %v\n", faults.Sorted())
	fmt.Printf("diagnosed faults: %v\n", found.Sorted())
	if fmt.Sprint(found.Sorted()) == fmt.Sprint(faults.Sorted()) {
		fmt.Println("diagnosis exact: the sorter can be configured with these addresses")
	} else {
		fmt.Println("DIAGNOSIS MISMATCH")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diagnose:", err)
	os.Exit(1)
}
