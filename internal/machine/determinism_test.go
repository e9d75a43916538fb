// Cross-host determinism harness: simulated results must depend only on
// the kernels' message-passing causality, never on how the host schedules
// the goroutine-per-processor simulator.
//
// The full fault-tolerant sort runs under GOMAXPROCS 1 (every wait goes
// through the park/wake path) and NumCPU (true parallelism), each on a
// cold machine (its first Run) and a warm one (a Run after another on
// the same machine, reusing its mailboxes and payload buffers).
// Every Result quantity that virtual time defines — Makespan, Messages,
// KeysSent, KeyHops, Comparisons, PerNode — and the sorted output must
// be bit-identical across all of them. RecvWaits is excluded by design:
// it counts host scheduling stalls, which legitimately vary.
//
// The tests change GOMAXPROCS, so nothing here may run in parallel with
// other tests (no t.Parallel).
package machine_test

import (
	"errors"
	"maps"
	"runtime"
	"slices"
	"testing"

	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/partition"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// variant is one host configuration under test.
type variant struct {
	name  string
	procs int
	// warm runs the variant's workload once on its machine before the
	// measured run.
	warm bool
}

func substrateVariants() []variant {
	ncpu := runtime.NumCPU()
	return []variant{
		{"cold/procs=1", 1, false},
		{"warm/procs=1", 1, true},
		{"cold/procs=n", ncpu, false},
		{"warm/procs=n", ncpu, true},
	}
}

// withSubstrate runs fn under the variant's GOMAXPROCS, restoring it
// afterwards.
func withSubstrate(v variant, fn func()) {
	prev := runtime.GOMAXPROCS(v.procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// warmUp runs a sort on m first when v is a warm variant.
func warmUp(t *testing.T, v variant, m *machine.Machine, plan *partition.Plan, keys []sortutil.Key) {
	t.Helper()
	if !v.warm {
		return
	}
	if _, _, err := core.FTSortOpt(m, plan, keys, core.Options{}); err != nil {
		t.Fatalf("%s warm-up: %v", v.name, err)
	}
}

// resultsEqual compares every virtual-time-defined Result field,
// ignoring RecvWaits.
func resultsEqual(a, b machine.Result) bool {
	return a.Makespan == b.Makespan &&
		a.Messages == b.Messages &&
		a.KeysSent == b.KeysSent &&
		a.KeyHops == b.KeyHops &&
		a.Comparisons == b.Comparisons &&
		maps.Equal(a.PerNode, b.PerNode)
}

func TestCrossSubstrateDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		dim    int
		faults []cube.NodeID
		model  machine.FaultModel
		mKeys  int
	}{
		{"q4-fault-free", 4, nil, machine.Partial, 197},
		{"q5-two-faults", 5, []cube.NodeID{3, 17}, machine.Partial, 430},
		{"q5-total-model", 5, []cube.NodeID{9, 22}, machine.Total, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faults := cube.NewNodeSet(tc.faults...)
			plan, err := partition.BuildPlan(tc.dim, faults)
			if err != nil {
				t.Fatal(err)
			}
			keys := workload.MustGenerate(workload.Uniform, tc.mKeys, xrand.New(7))

			var refOut []sortutil.Key
			var refRes machine.Result
			for i, v := range substrateVariants() {
				withSubstrate(v, func() {
					m := machine.MustNew(machine.Config{Dim: tc.dim, Faults: faults, Model: tc.model})
					warmUp(t, v, m, plan, keys)
					out, res, err := core.FTSortOpt(m, plan, keys, core.Options{})
					if err != nil {
						t.Fatalf("%s: %v", v.name, err)
					}
					if i == 0 {
						refOut, refRes = out, res
						return
					}
					if !slices.Equal(out, refOut) {
						t.Errorf("%s: sorted output diverges", v.name)
					}
					if !resultsEqual(res, refRes) {
						t.Errorf("%s: Result diverges\n got %+v\nwant %+v", v.name, res, refRes)
					}
				})
			}
		})
	}
}

// TestCrossSubstrateDeterminismInjection extends the harness to live
// faults: an armed kill must fire at the same virtual instant on the
// same victim under every substrate, and the degraded re-run on the
// survivors must produce bit-identical results everywhere. This is what
// makes chaos schedules replayable: (seed, injection schedule) pins the
// entire recovery trajectory regardless of host parallelism.
func TestCrossSubstrateDeterminismInjection(t *testing.T) {
	keys := workload.MustGenerate(workload.Uniform, 260, xrand.New(13))
	plan, err := partition.BuildPlan(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	degradedFaults := cube.NewNodeSet(5)
	degradedPlan, err := partition.BuildPlan(4, degradedFaults)
	if err != nil {
		t.Fatal(err)
	}

	var refDied machine.ProcessorDiedError
	var refOut []sortutil.Key
	var refRes machine.Result
	for i, v := range substrateVariants() {
		withSubstrate(v, func() {
			// The casualty run: the kill must strike the same victim at
			// the same virtual time on every substrate.
			m := machine.MustNew(machine.Config{Dim: 4})
			warmUp(t, v, m, plan, keys)
			if err := m.Arm(machine.Injection{Kind: machine.KillNode, Node: 5, At: 30}); err != nil {
				t.Fatal(err)
			}
			_, _, err := core.FTSortOpt(m, plan, keys, core.Options{})
			var died machine.ProcessorDiedError
			if !errors.As(err, &died) {
				t.Fatalf("%s: want ProcessorDiedError, got %v", v.name, err)
			}

			// The degraded re-run: recovery output is as deterministic as
			// the healthy path.
			dm := machine.MustNew(machine.Config{Dim: 4, Faults: degradedFaults})
			warmUp(t, v, dm, degradedPlan, keys)
			out, res, err := core.FTSortOpt(dm, degradedPlan, keys, core.Options{})
			if err != nil {
				t.Fatalf("%s: degraded run: %v", v.name, err)
			}

			if i == 0 {
				refDied, refOut, refRes = died, out, res
				return
			}
			if died != refDied {
				t.Errorf("%s: casualty diverges: %+v vs %+v", v.name, died, refDied)
			}
			if !slices.Equal(out, refOut) {
				t.Errorf("%s: degraded sorted output diverges", v.name)
			}
			if !resultsEqual(res, refRes) {
				t.Errorf("%s: degraded Result diverges\n got %+v\nwant %+v", v.name, res, refRes)
			}
		})
	}
}

// TestCrossSubstrateDeterminismCollectives covers the selection path's
// AllReduce/Scatter/Gather traffic (multi-writer fan-in at the root)
// with distribution accounting on.
func TestCrossSubstrateDeterminismCollectives(t *testing.T) {
	faults := cube.NewNodeSet(5)
	plan, err := partition.BuildPlan(4, faults)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.MustGenerate(workload.Uniform, 300, xrand.New(11))

	var refOut []sortutil.Key
	var refRes machine.Result
	for i, v := range substrateVariants() {
		withSubstrate(v, func() {
			m := machine.MustNew(machine.Config{Dim: 4, Faults: faults})
			warmUp(t, v, m, plan, keys)
			out, res, err := core.FTSortOpt(m, plan, keys, core.Options{AccountDistribution: true})
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			if i == 0 {
				refOut, refRes = out, res
				return
			}
			if !slices.Equal(out, refOut) {
				t.Errorf("%s: sorted output diverges", v.name)
			}
			if !resultsEqual(res, refRes) {
				t.Errorf("%s: Result diverges\n got %+v\nwant %+v", v.name, res, refRes)
			}
		})
	}
}
