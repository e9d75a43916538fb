package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"hypersort/internal/cube"
	"hypersort/internal/maxsubcube"
	"hypersort/internal/partition"
	"hypersort/internal/xrand"
)

// Table2Row compares processor utilization (working processors as a
// fraction of healthy processors) between the paper's partition approach
// and the maximum dimensional fault-free subcube baseline, for one (n, r)
// configuration. Best and Worst are taken over the sampled fault
// placements, matching the paper's best-case/worst-case columns.
type Table2Row struct {
	N, R                    int
	Trials                  int
	OursBest, OursWorst     float64
	BaseBest, BaseWorst     float64
	OursMean, BaseMean      float64
	MincutBest, MincutWorst int
}

// Table2Config parameterizes the sweep; zero values take the paper's
// ranges (n = 3..6, r = 1..n-1, 10000 trials), and out-of-range values
// are errors as for Table1Config.
type Table2Config struct {
	MinN, MaxN int
	Trials     int
	Seed       uint64
}

func (c *Table2Config) fill() error {
	if c.MaxN == 0 {
		c.MinN, c.MaxN = 3, 6
	}
	if c.Trials == 0 {
		c.Trials = 10000
	}
	return checkSweep(c.MinN, c.MaxN, c.Trials)
}

// Table2 reproduces the paper's Table 2: utilization of the proposed
// partition algorithm versus the maximum fault-free subcube method over
// random fault placements.
func Table2(cfg Table2Config) ([]Table2Row, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	var rows []Table2Row
	for n := cfg.MinN; n <= cfg.MaxN; n++ {
		h := cube.New(n)
		for r := 1; r <= n-1; r++ {
			row := Table2Row{N: n, R: r, Trials: cfg.Trials,
				OursWorst: 2, BaseWorst: 2, MincutBest: n + 1, MincutWorst: -1}
			for trial := 0; trial < cfg.Trials; trial++ {
				faults := sampleFaults(h, r, rng)
				plan, err := partition.BuildPlan(n, faults)
				if err != nil {
					return nil, fmt.Errorf("experiments: n=%d r=%d: %w", n, r, err)
				}
				ours := plan.Utilization()
				base := maxsubcube.Utilization(h, faults)
				row.OursMean += ours
				row.BaseMean += base
				if ours > row.OursBest {
					row.OursBest = ours
				}
				if ours < row.OursWorst {
					row.OursWorst = ours
				}
				if base > row.BaseBest {
					row.BaseBest = base
				}
				if base < row.BaseWorst {
					row.BaseWorst = base
				}
				if plan.Mincut() < row.MincutBest {
					row.MincutBest = plan.Mincut()
				}
				if plan.Mincut() > row.MincutWorst {
					row.MincutWorst = plan.Mincut()
				}
			}
			row.OursMean /= float64(cfg.Trials)
			row.BaseMean /= float64(cfg.Trials)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTable2 renders the comparison as an aligned text table.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "n\tr\tours best\tours worst\tours mean\tbaseline best\tbaseline worst\tbaseline mean")
	for _, row := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			row.N, row.R,
			100*row.OursBest, 100*row.OursWorst, 100*row.OursMean,
			100*row.BaseBest, 100*row.BaseWorst, 100*row.BaseMean)
	}
	w.Flush()
	return b.String()
}
