package direct

import (
	"testing"

	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/partition"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// Predicted-makespan accuracy band vs the simulator's measured virtual
// time. The §3 closed form is a worst-case bound — padded shares, full
// worst-case heapsort and compare-split charges — while the simulated
// makespan is the realized critical path, so the prediction must never
// undershoot (ratio ≥ 1) and empirically lands at 1.12–1.28 across the
// Fig 7 grid. Ratios outside the band mean the analytic model and the
// simulator's cost charging have drifted apart.
const (
	costRatioMin = 1.0
	costRatioMax = 1.5
)

// TestPredictedCostAgainstSimulated sweeps the Figure 7 panel grid —
// every panel dimension, fault counts r ∈ {0, 1, n-1} with seeded random
// placements, and the paper's M sweep endpoints — and requires the
// analytic Result served by direct mode to stay within the stated
// tolerance of the simulator's measured virtual time. This is the CI
// contract that keeps direct mode's predicted costs honest against the
// oracle.
func TestPredictedCostAgainstSimulated(t *testing.T) {
	rng := xrand.New(42)
	for _, n := range []int{3, 4, 5, 6} {
		for _, r := range []int{0, 1, n - 1} {
			faults := samplePlannableFaults(t, n, r, rng)
			plan, err := partition.BuildPlan(n, faults)
			if err != nil {
				t.Fatalf("BuildPlan(%d, %v): %v", n, faults, err)
			}
			m, err := machine.New(machine.Config{Dim: n, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			layout := core.NewLayout(plan)
			sch := Compile(layout)
			for _, keys := range []int{3200, 32000} {
				input := workload.MustGenerate(workload.Uniform, keys, rng)
				_, res, err := core.FTSortLayout(m, layout, input, core.Options{})
				if err != nil {
					t.Fatalf("n=%d r=%d M=%d: simulated sort: %v", n, r, keys, err)
				}
				pred, err := sch.Predict(keys, machine.CostModel{})
				if err != nil {
					t.Fatal(err)
				}
				ratio := float64(pred.Makespan) / float64(res.Makespan)
				if ratio < costRatioMin || ratio > costRatioMax {
					t.Errorf("n=%d r=%d faults=%v M=%d: predicted/simulated makespan %d/%d = %.3f outside [%.2g, %.2g]",
						n, r, faults, keys, pred.Makespan, res.Makespan, ratio, costRatioMin, costRatioMax)
				}
			}
		}
	}
}

// samplePlannableFaults draws r distinct faulty nodes on Q_n for which
// a partition plan exists, retrying placements that the planner rejects
// (unseparable fault sets are legitimate refusals, not test inputs).
func samplePlannableFaults(t *testing.T, n, r int, rng *xrand.RNG) cube.NodeSet {
	t.Helper()
	for attempt := 0; attempt < 100; attempt++ {
		faults := cube.NodeSet{}
		for len(faults) < r {
			faults.Add(cube.NodeID(rng.IntN(1 << n)))
		}
		if _, err := partition.BuildPlan(n, faults); err == nil {
			return faults
		}
	}
	t.Fatalf("no plannable %d-fault placement on Q_%d after 100 attempts", r, n)
	return cube.NodeSet{}
}
