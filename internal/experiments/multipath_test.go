package experiments

// E24, the multipath routing study, runs only as this test: its grid
// runner lives here rather than in the package API. Reproduce the table
// with
//
//	go test -run TestMultipathExperiment -v ./internal/experiments

import (
	"fmt"
	"strings"
	"testing"
	"text/tabwriter"

	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/partition"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// multipathRow is one (n, r, M) cell of the routing study (E24): the
// same sort run under the legacy single-path e-cube discipline and
// under multipath striping, both against a machine with one hot link
// injected on the dimension-0 edge 0-1 (the busiest wire of a bitonic
// schedule: every dimension-0 compare-exchange between nodes 0 and 1
// crosses it). Single and Multi are congestion-priced makespans — link
// queueing and the hot-link surcharge included — so the comparison
// isolates exactly what the routing policy changes.
type multipathRow struct {
	N, R, M int
	// Surcharge is the injected hot link's per-traversal cost.
	Surcharge machine.Time
	// Single and Multi are the simulated makespans under RouteSingle
	// and RouteMultipath respectively.
	Single, Multi machine.Time
	// Speedup is Single/Multi (> 1 means multipath won).
	Speedup float64
	// StripedSends counts the transfers the multipath run actually
	// striped across more than one path.
	StripedSends int64
	// WaitSingle and WaitMulti are the runs' total modeled link-queue
	// waits (machine.Result.LinkWait).
	WaitSingle, WaitMulti machine.Time
}

// multipathConfig parameterizes E24.
type multipathConfig struct {
	// Ns are the cube dimensions swept; zero means {4, 5}.
	Ns []int
	// Rs are the fault counts swept; zero means {0, 1}.
	Rs []int
	// Ms are the element counts swept; zero means {1600, 6400} — large
	// enough that every compare-split transfer clears the striping
	// threshold on the default dimensions.
	Ms []int
	// Surcharge is the hot link's per-traversal cost; zero means
	// M/2 * Cost.Elem per cell (half the payload's transfer time, so
	// the hot wire dominates without drowning the rest of the model).
	Surcharge machine.Time
	Seed      uint64
	Cost      machine.CostModel
}

func (c *multipathConfig) fill() {
	if len(c.Ns) == 0 {
		c.Ns = []int{4, 5}
	}
	if len(c.Rs) == 0 {
		c.Rs = []int{0, 1}
	}
	if len(c.Ms) == 0 {
		c.Ms = []int{1600, 6400}
	}
	if (c.Cost == machine.CostModel{}) {
		c.Cost = machine.PaperCostModel()
	}
}

// runMultipath runs E24: for every (n, r, M) cell, sort the same keys on
// the same faulty cube with a hot dimension-0 link under both routing
// policies and compare congestion-priced makespans. The single-path run
// keeps the legacy hop-objective plan; the multipath run plans with the
// congestion objective, exactly as the engine does for
// RouteMultipath. Both outputs are verified sorted and identical.
func runMultipath(cfg multipathConfig) ([]multipathRow, error) {
	cfg.fill()
	rng := xrand.New(cfg.Seed)
	var rows []multipathRow
	for _, n := range cfg.Ns {
		h := cube.New(n)
		for _, r := range cfg.Rs {
			faults := sampleFaults(h, r, rng)
			// Keep the hot edge's endpoints healthy so every cell
			// exercises the 0-1 exchange the study is about.
			for faults.Has(0) || faults.Has(1) {
				faults = sampleFaults(h, r, rng)
			}
			planHops, err := partition.BuildPlan(n, faults)
			if err != nil {
				return nil, err
			}
			planCong, err := partition.BuildPlanObjective(n, faults, partition.ObjectiveCongestion)
			if err != nil {
				return nil, err
			}
			for _, m := range cfg.Ms {
				keys := workload.MustGenerate(workload.Uniform, m, rng)
				surcharge := cfg.Surcharge
				if surcharge == 0 {
					surcharge = machine.Time(int64(m) / 2 * int64(cfg.Cost.Elem))
				}
				hot := map[cube.Edge]machine.Time{cube.NewEdge(0, 1): surcharge}

				single := machine.MustNew(machine.Config{
					Dim: n, Faults: faults, Cost: cfg.Cost, HotLinks: hot,
				})
				sortedS, resS, err := core.FTSort(single, planHops, keys)
				if err != nil {
					return nil, fmt.Errorf("experiments: multipath single n=%d r=%d M=%d: %w", n, r, m, err)
				}
				multi := machine.MustNew(machine.Config{
					Dim: n, Faults: faults, Cost: cfg.Cost, HotLinks: hot,
					Routing: machine.RouteMultipath,
				})
				sortedM, resM, err := core.FTSort(multi, planCong, keys)
				if err != nil {
					return nil, fmt.Errorf("experiments: multipath multi n=%d r=%d M=%d: %w", n, r, m, err)
				}
				if !sortutil.IsSorted(sortedS, sortutil.Ascending) || !sortutil.IsSorted(sortedM, sortutil.Ascending) {
					return nil, fmt.Errorf("experiments: multipath n=%d r=%d M=%d produced unsorted output", n, r, m)
				}
				for i := range sortedS {
					if sortedS[i] != sortedM[i] {
						return nil, fmt.Errorf("experiments: multipath n=%d r=%d M=%d outputs diverge at %d", n, r, m, i)
					}
				}
				rows = append(rows, multipathRow{
					N: n, R: r, M: m,
					Surcharge:    surcharge,
					Single:       resS.Makespan,
					Multi:        resM.Makespan,
					Speedup:      float64(resS.Makespan) / float64(resM.Makespan),
					StripedSends: resM.StripedSends,
					WaitSingle:   resS.LinkWait,
					WaitMulti:    resM.LinkWait,
				})
			}
		}
	}
	return rows, nil
}

// formatMultipath renders E24's rows.
func formatMultipath(rows []multipathRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "n\tr\tM\thot surcharge\tsingle\tmultipath\tspeedup\tstriped\twait single\twait multi")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%.3fx\t%d\t%d\t%d\n",
			r.N, r.R, r.M, r.Surcharge, r.Single, r.Multi, r.Speedup,
			r.StripedSends, r.WaitSingle, r.WaitMulti)
	}
	w.Flush()
	return b.String()
}

func TestMultipathExperiment(t *testing.T) {
	cfg := multipathConfig{Ns: []int{4, 5}, Rs: []int{0, 1}, Ms: []int{1600}, Seed: 1}
	rows, err := runMultipath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		// The acceptance claim: with a hot link injected, multipath
		// striping beats single-path e-cube on every grid cell.
		if r.Multi >= r.Single {
			t.Errorf("multipath did not improve: %+v", r)
		}
		if r.StripedSends == 0 {
			t.Errorf("no transfer striped: %+v", r)
		}
		if r.Speedup <= 1 {
			t.Errorf("speedup %.3f <= 1: %+v", r.Speedup, r)
		}
	}
	t.Log("\n" + formatMultipath(rows))
	// Determinism: the congestion-priced study is replayed from sorted
	// send logs, so a rerun must reproduce every cell exactly.
	again, err := runMultipath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("row %d diverged between runs:\n%+v\n%+v", i, rows[i], again[i])
		}
	}
}
