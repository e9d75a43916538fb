package bitonic

import (
	"maps"
	"slices"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// TestHostSortConformance pins the host-speed local-sort substitution:
// LocalSort executes pdqsort (sortutil.SortHost) on the host but charges
// the analytic heapsort comparison count, so every simulated quantity —
// makespan, Comparisons, per-node clocks, traffic — and the sorted
// output must be bit-identical to actually running heapsort. The sorted
// permutation of a chunk is unique, which is why the equivalence is
// exact and not merely statistical.
func TestHostSortConformance(t *testing.T) {
	defer func() { hostSort = sortutil.SortHost }()

	cases := []struct {
		name   string
		dim    int
		faults []cube.NodeID
		mKeys  int
	}{
		{"fault-free-q4", 4, nil, 200},
		{"single-fault-q4", 4, []cube.NodeID{5}, 173},
		{"fault-free-q5-ragged", 5, nil, 301},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys := workload.MustGenerate(workload.Uniform, tc.mKeys, xrand.New(42))
			run := func(sorter func([]sortutil.Key, sortutil.Direction)) ([]sortutil.Key, machine.Result) {
				hostSort = sorter
				m := machine.MustNew(machine.Config{Dim: tc.dim, Faults: cube.NewNodeSet(tc.faults...)})
				v := FullCube(tc.dim)
				if len(tc.faults) > 0 {
					v = singleFaultView(tc.dim, tc.faults[0])
				}
				out, res, err := Sort(m, v, keys, sortutil.Ascending)
				if err != nil {
					t.Fatalf("Sort: %v", err)
				}
				return out, res
			}
			gotOut, gotRes := run(sortutil.SortHost)
			wantOut, wantRes := run(sortutil.HeapSort)

			if !slices.Equal(gotOut, wantOut) {
				t.Errorf("sorted outputs differ between host sorts")
			}
			// RecvWaits is scheduler-dependent diagnostics, never part of
			// the virtual-time contract; everything else must match bit
			// for bit.
			gotRes.RecvWaits, wantRes.RecvWaits = 0, 0
			if gotRes.Makespan != wantRes.Makespan ||
				gotRes.Messages != wantRes.Messages ||
				gotRes.KeysSent != wantRes.KeysSent ||
				gotRes.KeyHops != wantRes.KeyHops ||
				gotRes.Comparisons != wantRes.Comparisons {
				t.Errorf("counters diverge: pdqsort %+v heapsort %+v", gotRes, wantRes)
			}
			if !maps.Equal(gotRes.PerNode, wantRes.PerNode) {
				t.Errorf("per-node clocks diverge:\npdq  %v\nheap %v", gotRes.PerNode, wantRes.PerNode)
			}
		})
	}
}
