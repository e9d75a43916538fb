package bitonic

import (
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

func TestFullCubeViewMapping(t *testing.T) {
	v := FullCube(4)
	if v.S() != 4 || v.Size() != 16 || v.LiveCount() != 16 {
		t.Fatalf("view = %+v", v)
	}
	for id := cube.NodeID(0); id < 16; id++ {
		if v.Phys(id) != id || v.Logical(id) != id {
			t.Fatalf("full view not identity at %d", id)
		}
	}
}

// singleFaultView builds the §2.1 view of a whole n-cube with one faulty
// processor: addresses are reindexed by XOR with the fault so it sits at
// logical 0, and logical 0 is marked dead.
func singleFaultView(n int, fault cube.NodeID) View {
	v := FullCube(n)
	v.Pivot = fault
	v.Dead = true
	return v
}

func TestSingleFaultViewMapping(t *testing.T) {
	v := singleFaultView(4, 0b1010)
	if !v.Dead || v.LiveCount() != 15 {
		t.Fatal("dead flag or live count wrong")
	}
	if v.Phys(0) != 0b1010 {
		t.Errorf("logical 0 should be the fault, got %04b", v.Phys(0))
	}
	if v.Logical(0b1010) != 0 {
		t.Error("fault should map to logical 0")
	}
	// Reindexing preserves adjacency.
	for logical := cube.NodeID(0); logical < 16; logical++ {
		for j := 0; j < 4; j++ {
			a := v.Phys(logical)
			b := v.Phys(cube.FlipBit(logical, j))
			if cube.HammingDistance(a, b) != 1 {
				t.Fatalf("adjacency broken at logical %d dim %d", logical, j)
			}
		}
	}
}

func TestSubcubeViewMapping(t *testing.T) {
	h := cube.New(5)
	sc, _ := cube.ParseSubcube("1*0*1")
	deadW := cube.NodeID(0b10) // local bits over free dims {1, 3}: dim3=1, dim1=0
	v := SubcubeView(h, sc, &deadW)
	if v.S() != 2 || !v.Dead {
		t.Fatalf("view = %+v", v)
	}
	// Logical 0 is the dead node: fixed bits 1_0_1 with dim3=1, dim1=0:
	// address 11001 = 25.
	if v.Phys(0) != 0b11001 {
		t.Errorf("dead phys = %05b", v.Phys(0))
	}
	// Every live physical address must be inside the subcube.
	for _, phys := range v.LivePhys() {
		if !sc.Contains(phys) {
			t.Errorf("live node %05b outside subcube", phys)
		}
	}
	// Without a dead node the view is the plain subcube.
	v2 := SubcubeView(h, sc, nil)
	if v2.Dead || v2.LiveCount() != 4 {
		t.Errorf("no-dead view = %+v", v2)
	}
}

func TestViewValidate(t *testing.T) {
	if err := (View{Dims: []int{0, 0}}).Validate(3); err == nil {
		t.Error("repeated dim accepted")
	}
	if err := (View{Dims: []int{5}}).Validate(3); err == nil {
		t.Error("out-of-range dim accepted")
	}
	if err := (View{Dims: []int{0}, Pivot: 2}).Validate(3); err == nil {
		t.Error("oversized pivot accepted")
	}
	if err := FullCube(3).Validate(3); err != nil {
		t.Errorf("valid view rejected: %v", err)
	}
}

func TestLiveLogicalsSkipsDead(t *testing.T) {
	v := singleFaultView(2, 3)
	logicals := v.LiveLogicals()
	if len(logicals) != 3 || logicals[0] != 1 {
		t.Errorf("live logicals = %v", logicals)
	}
}

// sortAndCheck runs Sort and verifies the result is a sorted permutation.
func sortAndCheck(t *testing.T, m *machine.Machine, v View, keys []sortutil.Key, dir sortutil.Direction) machine.Result {
	t.Helper()
	got, res, err := Sort(m, v, keys, dir)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	if !sortutil.IsSorted(got, dir) {
		t.Fatalf("result not sorted %v: %v", dir, got)
	}
	if !sortutil.SameMultiset(got, keys) {
		t.Fatalf("result not a permutation of input")
	}
	return res
}

func TestFaultFreeSortSmallCubes(t *testing.T) {
	r := xrand.New(1)
	for n := 0; n <= 4; n++ {
		m := machine.MustNew(machine.Config{Dim: n})
		for _, mult := range []int{1, 3, 8} {
			keys := workload.MustGenerate(workload.Uniform, mult*(1<<n), r)
			sortAndCheck(t, m, FullCube(n), keys, sortutil.Ascending)
			sortAndCheck(t, m, FullCube(n), keys, sortutil.Descending)
		}
	}
}

func TestFaultFreeSortAllDistributions(t *testing.T) {
	r := xrand.New(2)
	m := machine.MustNew(machine.Config{Dim: 3})
	for _, kind := range workload.Kinds() {
		keys := workload.MustGenerate(kind, 100, r)
		sortAndCheck(t, m, FullCube(3), keys, sortutil.Ascending)
	}
}

func TestFaultFreeSortRaggedSizes(t *testing.T) {
	r := xrand.New(3)
	m := machine.MustNew(machine.Config{Dim: 3})
	for _, sz := range []int{1, 5, 7, 9, 63, 65, 100} {
		keys := workload.MustGenerate(workload.Uniform, sz, r)
		sortAndCheck(t, m, FullCube(3), keys, sortutil.Ascending)
	}
}

// TestSingleFaultSortEveryFaultLocation is the core §2.1 claim: bitonic
// sort works on Q_n with one faulty processor at ANY address.
func TestSingleFaultSortEveryFaultLocation(t *testing.T) {
	r := xrand.New(4)
	for _, n := range []int{2, 3, 4} {
		for f := cube.NodeID(0); f < cube.NodeID(1<<n); f++ {
			m := machine.MustNew(machine.Config{Dim: n, Faults: cube.NewNodeSet(f)})
			keys := workload.MustGenerate(workload.Uniform, 6*(1<<n)-3, r)
			v := singleFaultView(n, f)
			sortAndCheck(t, m, v, keys, sortutil.Ascending)
			sortAndCheck(t, m, v, keys, sortutil.Descending)
		}
	}
}

func TestSingleFaultSortTotalModel(t *testing.T) {
	// Under the total fault model messages detour around the fault; the
	// sort must still be correct and cost at least as much as partial.
	r := xrand.New(5)
	keys := workload.MustGenerate(workload.Uniform, 200, r)
	f := cube.NodeID(5)
	v := singleFaultView(4, f)
	mPartial := machine.MustNew(machine.Config{Dim: 4, Faults: cube.NewNodeSet(f), Model: machine.Partial})
	mTotal := machine.MustNew(machine.Config{Dim: 4, Faults: cube.NewNodeSet(f), Model: machine.Total})
	resP := sortAndCheck(t, mPartial, v, keys, sortutil.Ascending)
	resT := sortAndCheck(t, mTotal, v, keys, sortutil.Ascending)
	if resT.Makespan < resP.Makespan {
		t.Errorf("total model (%d) cheaper than partial (%d)", resT.Makespan, resP.Makespan)
	}
	if resT.KeyHops < resP.KeyHops {
		t.Errorf("total model hops (%d) below partial (%d)", resT.KeyHops, resP.KeyHops)
	}
}

func TestSubcubeSortWithDeadNode(t *testing.T) {
	// Sort inside subcube 1*0*1 of Q_5 whose processor at local 10 is
	// dangling: the machine has no fault there, but the view excludes it.
	h := cube.New(5)
	sc, _ := cube.ParseSubcube("1*0*1")
	deadW := cube.NodeID(0b10)
	v := SubcubeView(h, sc, &deadW)
	m := machine.MustNew(machine.Config{Dim: 5})
	r := xrand.New(6)
	keys := workload.MustGenerate(workload.Uniform, 50, r)
	sortAndCheck(t, m, v, keys, sortutil.Ascending)
	sortAndCheck(t, m, v, keys, sortutil.Descending)
}

func TestSortRejectsFaultyLiveProcessor(t *testing.T) {
	// A fault-free view over a machine that DOES have a fault in it must
	// be rejected rather than silently running a kernel on a faulty node.
	m := machine.MustNew(machine.Config{Dim: 3, Faults: cube.NewNodeSet(2)})
	_, _, err := Sort(m, FullCube(3), []sortutil.Key{3, 1, 2}, sortutil.Ascending)
	if err == nil {
		t.Error("Sort accepted a view whose live set includes a faulty node")
	}
}

func TestSortRejectsInvalidView(t *testing.T) {
	m := machine.MustNew(machine.Config{Dim: 3})
	_, _, err := Sort(m, View{Dims: []int{7}}, nil, sortutil.Ascending)
	if err == nil {
		t.Error("invalid view accepted")
	}
}

func TestSortDeterministicMakespan(t *testing.T) {
	r := xrand.New(7)
	keys := workload.MustGenerate(workload.Uniform, 128, r)
	var first machine.Time
	for trial := 0; trial < 4; trial++ {
		m := machine.MustNew(machine.Config{Dim: 4, Cost: machine.DefaultCostModel()})
		_, res, err := Sort(m, FullCube(4), keys, sortutil.Ascending)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = res.Makespan
		} else if res.Makespan != first {
			t.Fatalf("makespan %d != %d", res.Makespan, first)
		}
	}
}

func TestSortCostScalesWithM(t *testing.T) {
	r := xrand.New(8)
	m := machine.MustNew(machine.Config{Dim: 4})
	small := workload.MustGenerate(workload.Uniform, 1<<8, r)
	large := workload.MustGenerate(workload.Uniform, 1<<12, r)
	_, resS, err := Sort(m, FullCube(4), small, sortutil.Ascending)
	if err != nil {
		t.Fatal(err)
	}
	_, resL, err := Sort(m, FullCube(4), large, sortutil.Ascending)
	if err != nil {
		t.Fatal(err)
	}
	if resL.Makespan <= resS.Makespan {
		t.Errorf("16x data not slower: %d vs %d", resL.Makespan, resS.Makespan)
	}
}

func TestDegenerateViews(t *testing.T) {
	// s=0 (one node), and s=1 with a dead node (single live processor).
	m := machine.MustNew(machine.Config{Dim: 2})
	keys := []sortutil.Key{5, 1, 3}
	v0 := View{Dims: nil, Fixed: 2}
	sortAndCheck(t, m, v0, keys, sortutil.Ascending)

	m1 := machine.MustNew(machine.Config{Dim: 1, Faults: cube.NewNodeSet(1)})
	v1 := singleFaultView(1, 1)
	sortAndCheck(t, m1, v1, keys, sortutil.Ascending)
}

func TestHeapsortCostFormula(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1 + 1, 4: 3*2 + 1, 5: 4*3 + 1, 8: 7*3 + 1}
	for k, want := range cases {
		if got := heapsortCost(k); got != want {
			t.Errorf("heapsortCost(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestCtxTagAlignment(t *testing.T) {
	// SkipStep and ExchangeSplit must consume tags identically.
	m := machine.MustNew(machine.Config{Dim: 1})
	_, err := m.Run([]cube.NodeID{0, 1}, func(p *machine.Proc) error {
		ctx := NewCtx(p, FullCube(1), []sortutil.Key{sortutil.Key(p.ID())})
		if p.ID() == 0 {
			ctx.SkipStep() // pretend to sit out step 1
			ctx.ExchangeSplit(1, true)
		} else {
			ctx.SkipStep()
			ctx.ExchangeSplit(0, false)
		}
		if ctx.Chunk[0] != sortutil.Key(p.ID()) {
			t.Errorf("node %d chunk = %v", p.ID(), ctx.Chunk)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
