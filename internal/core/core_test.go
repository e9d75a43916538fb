package core

import (
	"testing"

	"hypersort/internal/bitonic"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/partition"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// runFT builds plan + machine for the fault set and checks FTSort returns
// a sorted permutation of the input.
func runFT(t *testing.T, n int, faults cube.NodeSet, keys []sortutil.Key, model machine.FaultModel) machine.Result {
	t.Helper()
	sorted, _, res, err := SortOnFaultyCube(n, faults, model, machine.CostModel{}, keys)
	if err != nil {
		t.Fatalf("n=%d faults=%v: %v", n, faults.Sorted(), err)
	}
	if !sortutil.IsSorted(sorted, sortutil.Ascending) {
		t.Fatalf("n=%d faults=%v: output not sorted", n, faults.Sorted())
	}
	if !sortutil.SameMultiset(sorted, keys) {
		t.Fatalf("n=%d faults=%v: output not a permutation", n, faults.Sorted())
	}
	return res
}

func TestFTSortNoFaults(t *testing.T) {
	r := xrand.New(1)
	for n := 0; n <= 4; n++ {
		keys := workload.MustGenerate(workload.Uniform, 10*(1<<n)+3, r)
		runFT(t, n, nil, keys, machine.Partial)
	}
}

func TestFTSortSingleFaultEveryLocation(t *testing.T) {
	r := xrand.New(2)
	for _, n := range []int{2, 3, 4} {
		for f := cube.NodeID(0); f < cube.NodeID(1<<n); f++ {
			keys := workload.MustGenerate(workload.Uniform, 5*(1<<n), r)
			runFT(t, n, cube.NewNodeSet(f), keys, machine.Partial)
		}
	}
}

// TestFTSortPaperExample runs the paper's Example 1/2 configuration:
// Q_5 with faults {3, 5, 16, 24}, partitioned by D_β = (0,1,3) with
// dangling processors {18, 25, 26, 27}.
func TestFTSortPaperExample(t *testing.T) {
	r := xrand.New(3)
	faults := cube.NewNodeSet(3, 5, 16, 24)
	keys := workload.MustGenerate(workload.Uniform, 470, r)
	sorted, plan, res, err := SortOnFaultyCube(5, faults, machine.Partial, machine.CostModel{}, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Chosen.Equal(cube.CutSequence{0, 1, 3}) {
		t.Errorf("D_β = %v", plan.Chosen)
	}
	if plan.Working() != 24 {
		t.Errorf("N' = %d, want 24", plan.Working())
	}
	if !sortutil.IsSorted(sorted, sortutil.Ascending) || !sortutil.SameMultiset(sorted, keys) {
		t.Fatal("wrong sort result")
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

// TestFTSortRandomFaultSweep is the headline correctness claim: sorting
// succeeds for every fault count up to n-1 at random locations, across
// cube sizes, in both fault models.
func TestFTSortRandomFaultSweep(t *testing.T) {
	r := xrand.New(4)
	for _, n := range []int{3, 4, 5} {
		for nf := 0; nf < n; nf++ {
			for trial := 0; trial < 6; trial++ {
				faults := cube.NewNodeSet()
				for _, f := range r.Sample(1<<n, nf) {
					faults.Add(cube.NodeID(f))
				}
				keys := workload.MustGenerate(workload.Uniform, 3*(1<<n)+r.IntN(64), r)
				runFT(t, n, faults, keys, machine.Partial)
				runFT(t, n, faults, keys, machine.Total)
			}
		}
	}
}

func TestFTSortQ6MaxFaults(t *testing.T) {
	// The paper's flagship machine size: Q_6 with 5 faults.
	r := xrand.New(5)
	faults := cube.NewNodeSet()
	for _, f := range r.Sample(64, 5) {
		faults.Add(cube.NodeID(f))
	}
	keys := workload.MustGenerate(workload.Uniform, 3200, r)
	runFT(t, 6, faults, keys, machine.Partial)
}

func TestFTSortAllDistributions(t *testing.T) {
	r := xrand.New(6)
	faults := cube.NewNodeSet(1, 6, 11)
	for _, kind := range workload.Kinds() {
		keys := workload.MustGenerate(kind, 200, r)
		runFT(t, 4, faults, keys, machine.Partial)
	}
}

func TestFTSortTinyAndRaggedInputs(t *testing.T) {
	r := xrand.New(7)
	faults := cube.NewNodeSet(2, 9)
	for _, sz := range []int{0, 1, 2, 13, 31, 97} {
		keys := workload.MustGenerate(workload.Uniform, sz, r)
		runFT(t, 4, faults, keys, machine.Partial)
	}
}

func TestFTSortDuplicateHeavy(t *testing.T) {
	keys := make([]sortutil.Key, 300)
	for i := range keys {
		keys[i] = sortutil.Key(i % 3)
	}
	runFT(t, 4, cube.NewNodeSet(0, 15), keys, machine.Partial)
}

// TestFTSortHalfExchangeProtocol sweeps the paper's literal Step 7
// protocol end to end: results must match the default protocol exactly.
func TestFTSortHalfExchangeProtocol(t *testing.T) {
	r := xrand.New(21)
	for _, n := range []int{3, 4, 5} {
		for nf := 0; nf < n; nf++ {
			faults := cube.NewNodeSet()
			for _, f := range r.Sample(1<<n, nf) {
				faults.Add(cube.NodeID(f))
			}
			keys := workload.MustGenerate(workload.Uniform, 4*(1<<n)+r.IntN(32), r)
			plan, err := partition.BuildPlan(n, faults)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.MustNew(machine.Config{Dim: n, Faults: faults})
			full, _, err := core0(m, plan, keys, bitonic.FullBlock)
			if err != nil {
				t.Fatalf("n=%d faults=%v: %v", n, faults.Sorted(), err)
			}
			half, _, err := core0(m, plan, keys, bitonic.HalfExchange)
			if err != nil {
				t.Fatalf("n=%d faults=%v: %v", n, faults.Sorted(), err)
			}
			for i := range full {
				if full[i] != half[i] {
					t.Fatalf("n=%d faults=%v: protocols disagree at %d", n, faults.Sorted(), i)
				}
			}
		}
	}
}

// core0 runs FTSortOpt with the given protocol.
func core0(m *machine.Machine, plan *partition.Plan, keys []sortutil.Key, proto bitonic.Protocol) ([]sortutil.Key, machine.Result, error) {
	return FTSortOpt(m, plan, keys, Options{Protocol: proto})
}

func TestFTSortRejectsMismatchedPlan(t *testing.T) {
	planA, err := partition.BuildPlan(4, cube.NewNodeSet(1))
	if err != nil {
		t.Fatal(err)
	}
	mB := machine.MustNew(machine.Config{Dim: 4, Faults: cube.NewNodeSet(2)})
	if _, _, err := FTSort(mB, planA, []sortutil.Key{1, 2}); err == nil {
		t.Error("plan/machine fault mismatch accepted")
	}
	mC := machine.MustNew(machine.Config{Dim: 3, Faults: cube.NewNodeSet(1)})
	if _, _, err := FTSort(mC, planA, []sortutil.Key{1, 2}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Machine missing a fault the plan expects.
	mD := machine.MustNew(machine.Config{Dim: 4})
	if _, _, err := FTSort(mD, planA, []sortutil.Key{1, 2}); err == nil {
		t.Error("plan fault not on machine accepted")
	}
}

func TestFTSortDeterministicCost(t *testing.T) {
	r := xrand.New(8)
	faults := cube.NewNodeSet(3, 12, 17)
	keys := workload.MustGenerate(workload.Uniform, 500, r)
	var first machine.Time
	for trial := 0; trial < 4; trial++ {
		res := runFT(t, 5, faults, keys, machine.Partial)
		if trial == 0 {
			first = res.Makespan
		} else if res.Makespan != first {
			t.Fatalf("makespan %d != %d", res.Makespan, first)
		}
	}
}

func TestLayoutOrdering(t *testing.T) {
	plan, err := partition.BuildPlan(5, cube.NewNodeSet(3, 5, 16, 24))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(plan)
	if len(l.Working) != 24 {
		t.Fatalf("working = %d", len(l.Working))
	}
	// No dead processor (fault or dangling) may appear in Working.
	dead := cube.NewNodeSet(3, 5, 16, 24, 18, 25, 26, 27)
	seen := cube.NewNodeSet()
	for _, id := range l.Working {
		if dead.Has(id) {
			t.Errorf("dead processor %d in working set", id)
		}
		seen.Add(id)
	}
	if len(seen) != 24 {
		t.Error("duplicate working processors")
	}
	// Slots invert Working.
	for i, id := range l.Working {
		if l.SlotOf[id] != i {
			t.Error("SlotOf inconsistent")
		}
	}
	// Working is grouped by ascending subcube address.
	prevV := cube.NodeID(0)
	for _, id := range l.Working {
		v := plan.Split.V(id)
		if v < prevV {
			t.Fatal("working set not in subcube-address order")
		}
		prevV = v
	}
}

func TestCostEstimateBasics(t *testing.T) {
	c := machine.PaperCostModel()
	// Errors.
	if _, err := CostEstimate(100, -1, 0, false, c); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := CostEstimate(100, 3, 4, false, c); err == nil {
		t.Error("m > n accepted")
	}
	if _, err := CostEstimate(-1, 3, 0, false, c); err == nil {
		t.Error("negative M accepted")
	}
	if _, err := CostEstimate(10, 0, 0, true, c); err == nil {
		t.Error("zero working processors accepted")
	}
	// Monotone in M.
	small, err := CostEstimate(1000, 6, 2, true, c)
	if err != nil {
		t.Fatal(err)
	}
	large, err := CostEstimate(10000, 6, 2, true, c)
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("cost not increasing in M: %d vs %d", small, large)
	}
	// More cuts (fewer working processors + more cross stages) cost more
	// for the same M and n.
	m0, _ := CostEstimate(10000, 6, 0, true, c)
	m3, _ := CostEstimate(10000, 6, 3, true, c)
	if m3 <= m0 {
		t.Errorf("m=3 (%d) should cost more than m=0 (%d)", m3, m0)
	}
}

// TestCostEstimateTracksSimulation checks the closed form and the
// simulated makespan stay within a modest constant factor across
// configurations — the model is a worst-case bound with slightly
// different constants, not an exact predictor.
func TestCostEstimateTracksSimulation(t *testing.T) {
	r := xrand.New(9)
	for _, cfg := range []struct {
		n  int
		nf int
		M  int
	}{{4, 0, 2000}, {4, 3, 2000}, {5, 2, 4000}, {6, 5, 8000}} {
		faults := cube.NewNodeSet()
		for _, f := range r.Sample(1<<cfg.n, cfg.nf) {
			faults.Add(cube.NodeID(f))
		}
		keys := workload.MustGenerate(workload.Uniform, cfg.M, r)
		_, plan, res, err := SortOnFaultyCube(cfg.n, faults, machine.Partial, machine.PaperCostModel(), keys)
		if err != nil {
			t.Fatal(err)
		}
		est, err := CostEstimate(cfg.M, cfg.n, plan.Mincut(), plan.HasDead, machine.PaperCostModel())
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(res.Makespan) / float64(est)
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("n=%d r=%d M=%d: makespan %d vs estimate %d (ratio %.2f)",
				cfg.n, cfg.nf, cfg.M, res.Makespan, est, ratio)
		}
	}
}

func TestCeilHelpers(t *testing.T) {
	if ceilDiv(7, 2) != 4 || ceilDiv(8, 2) != 4 {
		t.Error("ceilDiv wrong")
	}
	cases := map[int64]int64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for k, want := range cases {
		if got := ceilLog2(k); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", k, got, want)
		}
	}
}
