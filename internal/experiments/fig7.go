package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"hypersort/internal/bitonic"
	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// Fig7Point is one (M, simulated execution time) sample of a curve.
type Fig7Point struct {
	M        int
	Makespan machine.Time
}

// Fig7Series is one curve of Figure 7: either the proposed algorithm on
// Q_n with R faults (thin lines in the paper) or the baseline bitonic
// sort on a fault-free Q_Dim standing in for the maximum fault-free
// subcube (thick lines).
type Fig7Series struct {
	Label    string
	R        int  // fault count (ours) — 0 for baselines
	Dim      int  // cube dimension the sort runs on
	Baseline bool // true for the fault-free subcube baseline
	Points   []Fig7Point
}

// Fig7Config parameterizes one panel of Figure 7.
type Fig7Config struct {
	// N is the cube dimension of the panel: 6, 5, 4, 3 for (a), (b),
	// (d), (c) respectively.
	N int
	// Ms are the element counts swept; zero means the paper's range
	// 3.2*10^3 .. 3.2*10^5 in 4x steps scaled down by DefaultMScale for
	// the smaller panels.
	Ms []int
	// TrialsPerPoint averages each "ours" point over this many random
	// fault placements (the paper used 10000 placements; the default 5
	// keeps the harness quick while the seed keeps it reproducible).
	// Zero means the default; a negative count is an error.
	TrialsPerPoint int
	// BaselineDims lists fault-free subcube sizes to plot; zero means
	// n-1 down to max(n-3, 1).
	BaselineDims []int
	Seed         uint64
	Cost         machine.CostModel
	Model        machine.FaultModel
}

func (c *Fig7Config) fill() error {
	if c.N < 1 || c.N > 10 {
		return fmt.Errorf("experiments: Fig7 dimension %d out of range [1,10]", c.N)
	}
	if len(c.Ms) == 0 {
		c.Ms = DefaultMs()
	}
	if c.TrialsPerPoint < 0 {
		return fmt.Errorf("experiments: Fig7 trials per point %d is negative", c.TrialsPerPoint)
	}
	if c.TrialsPerPoint == 0 {
		c.TrialsPerPoint = 5
	}
	if len(c.BaselineDims) == 0 {
		lo := c.N - 3
		if lo < 1 {
			lo = 1
		}
		for d := c.N - 1; d >= lo; d-- {
			c.BaselineDims = append(c.BaselineDims, d)
		}
	}
	if (c.Cost == machine.CostModel{}) {
		// The paper's §3 cost model (t_c = t_s/r = 1, no startup): the
		// figure's who-wins structure depends on the compare/transfer
		// ratio, and this is the ratio the closed-form analysis uses.
		c.Cost = machine.PaperCostModel()
	}
	return nil
}

// DefaultMs returns the paper's Figure 7 element-count sweep:
// 3.2*10^3 to 3.2*10^5 in factor-of-~3.2 steps.
func DefaultMs() []int { return []int{3200, 10000, 32000, 100000, 320000} }

// Fig7 generates every curve of one Figure 7 panel: the proposed
// algorithm for r = 0..n-1 faults and the fault-free baselines. Each
// "ours" point is the mean simulated makespan over TrialsPerPoint random
// fault placements.
func Fig7(cfg Fig7Config) ([]Fig7Series, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	var series []Fig7Series

	for r := 0; r <= cfg.N-1; r++ {
		s := Fig7Series{Label: fmt.Sprintf("ours n=%d r=%d", cfg.N, r), R: r, Dim: cfg.N}
		for _, m := range cfg.Ms {
			var total machine.Time
			trials := cfg.TrialsPerPoint
			if r == 0 {
				trials = 1 // no placement randomness without faults
			}
			for trial := 0; trial < trials; trial++ {
				faults := sampleFaults(cube.New(cfg.N), r, rng)
				keys := workload.MustGenerate(workload.Uniform, m, rng)
				_, _, res, err := core.SortOnFaultyCube(cfg.N, faults, cfg.Model, cfg.Cost, keys)
				if err != nil {
					return nil, fmt.Errorf("experiments: fig7 n=%d r=%d M=%d: %w", cfg.N, r, m, err)
				}
				total += res.Makespan
			}
			s.Points = append(s.Points, Fig7Point{M: m, Makespan: total / machine.Time(trials)})
		}
		series = append(series, s)
	}

	for _, d := range cfg.BaselineDims {
		s := Fig7Series{Label: fmt.Sprintf("baseline fault-free Q_%d", d), Dim: d, Baseline: true}
		mach, err := machine.New(machine.Config{Dim: d, Cost: cfg.Cost, Model: cfg.Model})
		if err != nil {
			return nil, err
		}
		for _, m := range cfg.Ms {
			keys := workload.MustGenerate(workload.Uniform, m, rng)
			_, res, err := bitonic.Sort(mach, bitonic.FullCube(d), keys, sortutil.Ascending)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig7 baseline Q_%d M=%d: %w", d, m, err)
			}
			s.Points = append(s.Points, Fig7Point{M: m, Makespan: res.Makespan})
		}
		series = append(series, s)
	}
	return series, nil
}

// FormatFig7 renders the panel as a table: one row per M, one column per
// curve, in simulated time units.
func FormatFig7(series []Fig7Series) string {
	if len(series) == 0 {
		return ""
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "M")
	for _, s := range series {
		fmt.Fprintf(w, "\t%s", s.Label)
	}
	fmt.Fprintln(w)
	for i := range series[0].Points {
		fmt.Fprintf(w, "%d", series[0].Points[i].M)
		for _, s := range series {
			fmt.Fprintf(w, "\t%d", s.Points[i].Makespan)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// CheckFig7Shape verifies the orderings the paper reports for a panel
// (its Figure 7 discussion): with r = 1 or 2 faults the proposed
// algorithm on Q_n beats the fault-free Q_{n-1} baseline, and with any
// r <= n-1 it beats the fault-free Q_{n-2} baseline, at the largest M of
// the sweep. It returns a list of violated claims (empty = shape holds).
func CheckFig7Shape(series []Fig7Series) []string {
	last := func(s Fig7Series) machine.Time { return s.Points[len(s.Points)-1].Makespan }
	baseline := map[int]machine.Time{}
	var n int
	for _, s := range series {
		if s.Baseline {
			baseline[s.Dim] = last(s)
		} else if s.Dim > n {
			n = s.Dim
		}
	}
	var violations []string
	for _, s := range series {
		if s.Baseline {
			continue
		}
		if s.R >= 1 && s.R <= 2 {
			if b, ok := baseline[n-1]; ok && last(s) >= b {
				violations = append(violations,
					fmt.Sprintf("ours r=%d (%d) not faster than fault-free Q_%d (%d)", s.R, last(s), n-1, b))
			}
		}
		if s.R >= 1 {
			if b, ok := baseline[n-2]; ok && last(s) >= b {
				violations = append(violations,
					fmt.Sprintf("ours r=%d (%d) not faster than fault-free Q_%d (%d)", s.R, last(s), n-2, b))
			}
		}
	}
	return violations
}
