// Package experiments reproduces the paper's evaluation artifacts: the
// mincut distribution of Table 1, the processor-utilization comparison of
// Table 2, the execution-time curves of Figure 7(a)-(d), and the ablation
// studies DESIGN.md calls out (cost-model agreement, heuristic-selection
// value, partial-vs-total fault models). Every experiment is a pure
// function of (parameters, seed), so results are bit-for-bit reproducible.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"hypersort/internal/cube"
	"hypersort/internal/partition"
	"hypersort/internal/xrand"
)

// Table1Row is the mincut distribution for one (n, r) configuration: the
// percentage of random fault placements whose minimum cut count equals
// each observed value.
type Table1Row struct {
	N, R   int
	Trials int
	// Pct maps a mincut value to its percentage of trials.
	Pct map[int]float64
}

// Table1Config parameterizes the sweep. The zero value is completed by
// Table1 with the paper's ranges (n = 3..6, r = 2..n-1, 10000 trials);
// negative trials, an inverted range and dimensions outside
// [0, cube.MaxDim] are errors.
type Table1Config struct {
	MinN, MaxN int
	Trials     int
	Seed       uint64
}

func (c *Table1Config) fill() error {
	if c.MaxN == 0 {
		c.MinN, c.MaxN = 3, 6
	}
	if c.Trials == 0 {
		c.Trials = 10000
	}
	return checkSweep(c.MinN, c.MaxN, c.Trials)
}

// checkSweep rejects a Table 1 or Table 2 sweep that cannot be
// tabulated: a negative trial count, a dimension outside the cube's
// supported range, or a range whose smallest dimension exceeds its
// largest.
func checkSweep(minN, maxN, trials int) error {
	switch {
	case trials < 0:
		return fmt.Errorf("experiments: trials %d is negative", trials)
	case minN < 0 || maxN > cube.MaxDim:
		return fmt.Errorf("experiments: dimensions %d..%d outside [0,%d]", minN, maxN, cube.MaxDim)
	case minN > maxN:
		return fmt.Errorf("experiments: smallest dimension %d exceeds largest %d", minN, maxN)
	}
	return nil
}

// Table1 reproduces the paper's Table 1: for each n and each fault count
// r = 2..n-1, draw Trials random fault placements and tabulate the
// distribution of the partition algorithm's mincut value. (r = 0 and 1
// need no cut, so like the paper we start at r = 2.)
func Table1(cfg Table1Config) ([]Table1Row, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	var rows []Table1Row
	for n := cfg.MinN; n <= cfg.MaxN; n++ {
		h := cube.New(n)
		for r := 2; r <= n-1; r++ {
			counts := make(map[int]int)
			for trial := 0; trial < cfg.Trials; trial++ {
				faults := sampleFaults(h, r, rng)
				set, err := partition.FindCuttingSet(h, faults)
				if err != nil {
					return nil, fmt.Errorf("experiments: n=%d r=%d: %w", n, r, err)
				}
				counts[set.Mincut]++
			}
			row := Table1Row{N: n, R: r, Trials: cfg.Trials, Pct: make(map[int]float64, len(counts))}
			for m, c := range counts {
				row.Pct[m] = 100 * float64(c) / float64(cfg.Trials)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// sampleFaults draws r distinct fault addresses uniformly.
func sampleFaults(h cube.Hypercube, r int, rng *xrand.RNG) cube.NodeSet {
	faults := cube.NewNodeSet()
	for _, f := range rng.Sample(h.Size(), r) {
		faults.Add(cube.NodeID(f))
	}
	return faults
}

// FormatTable1 renders rows the way the paper prints Table 1: one line
// per (n, r) with the percentage of each mincut value.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "n\tr\tmincut: percentage of trials")
	for _, row := range rows {
		ms := make([]int, 0, len(row.Pct))
		for m := range row.Pct {
			ms = append(ms, m)
		}
		sort.Ints(ms)
		parts := make([]string, 0, len(ms))
		for _, m := range ms {
			parts = append(parts, fmt.Sprintf("m=%d: %.2f%%", m, row.Pct[m]))
		}
		fmt.Fprintf(w, "%d\t%d\t%s\n", row.N, row.R, strings.Join(parts, "  "))
	}
	w.Flush()
	return b.String()
}
