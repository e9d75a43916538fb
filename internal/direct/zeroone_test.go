package direct

import (
	"math/bits"
	"testing"

	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/partition"
	"hypersort/internal/sortutil"
)

// TestZeroOneEverySmallLayout applies the 0-1 principle to the compiled
// schedule of every small layout: a network of compare-splits sorts
// every input iff it sorts every 0-1 input. For every placement of
// r <= n-1 faults on Q_2 and Q_3, it compiles the plan's layout and sorts
// every 0-1 input at one and two keys per working processor (314,928
// sorts), which certifies those schedules completely. Schedules depend
// on real addresses, so XOR translation cannot shrink the placement set.
func TestZeroOneEverySmallLayout(t *testing.T) {
	sorts := 0
	for n := 2; n <= 3; n++ {
		for r := 0; r <= n-1; r++ {
			for _, ids := range cube.Combinations(1<<n, r) {
				faults := cube.NewNodeSet()
				for _, id := range ids {
					faults.Add(cube.NodeID(id))
				}
				plan, err := partition.BuildPlan(n, faults)
				if err != nil {
					t.Fatalf("Q_%d faults %v: %v", n, ids, err)
				}
				x := NewExec(Compile(core.NewLayout(plan)))
				for perProc := 1; perProc <= 2; perProc++ {
					mKeys := perProc * plan.Working()
					keys := make([]sortutil.Key, mKeys)
					for pattern := uint64(0); pattern < 1<<mKeys; pattern++ {
						for i := range keys {
							keys[i] = sortutil.Key(pattern >> i & 1)
						}
						out, err := x.Sort(keys)
						if err != nil {
							t.Fatalf("Q_%d faults %v pattern %b: %v", n, ids, pattern, err)
						}
						zeros := mKeys - bits.OnesCount64(pattern)
						if len(out) != mKeys {
							t.Fatalf("Q_%d faults %v pattern %b: %d keys out, want %d", n, ids, pattern, len(out), mKeys)
						}
						for i, k := range out {
							want := sortutil.Key(0)
							if i >= zeros {
								want = 1
							}
							if k != want {
								t.Fatalf("Q_%d faults %v pattern %0*b: out[%d] = %d, want %d (%v)", n, ids, mKeys, pattern, i, k, want, out)
							}
						}
						sorts++
					}
				}
			}
		}
	}
	if sorts != 314928 {
		t.Fatalf("ran %d sorts, want 314,928", sorts)
	}
}
