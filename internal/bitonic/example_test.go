package bitonic_test

import (
	"fmt"

	"hypersort/internal/bitonic"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
)

// Example runs the paper's §2.1 single-fault bitonic sort: the cube has a
// faulty processor, addresses are XOR-reindexed so it sits at logical 0,
// and its compare-exchange partners skip their steps.
func Example() {
	fault := cube.NodeID(5)
	m := machine.MustNew(machine.Config{Dim: 3, Faults: cube.NewNodeSet(fault)})
	view := bitonic.FullCube(3)
	view.Pivot, view.Dead = fault, true
	keys := []sortutil.Key{9, 2, 7, 4, 8, 1, 6, 3, 5}
	sorted, _, err := bitonic.Sort(m, view, keys, sortutil.Ascending)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(sorted)
	// Output: [1 2 3 4 5 6 7 8 9]
}
