package partition

import (
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/xrand"
)

// paperFaults is Example 1's fault set on Q_5: addresses 3, 5, 16, 24.
func paperFaults() cube.NodeSet { return cube.NewNodeSet(3, 5, 16, 24) }

// TestPaperExample1CuttingSet verifies the exact Ψ and mincut of the
// paper's Example 1: Ψ = {(0,1,3), (0,2,3), (1,2,3), (1,3,4), (2,3,4)},
// m = 3.
func TestPaperExample1CuttingSet(t *testing.T) {
	h := cube.New(5)
	set, err := FindCuttingSet(h, paperFaults())
	if err != nil {
		t.Fatal(err)
	}
	if set.Mincut != 3 {
		t.Fatalf("mincut = %d, want 3", set.Mincut)
	}
	want := []cube.CutSequence{{0, 1, 3}, {0, 2, 3}, {1, 2, 3}, {1, 3, 4}, {2, 3, 4}}
	if len(set.Sequences) != len(want) {
		t.Fatalf("|Ψ| = %d (%v), want %d", len(set.Sequences), set.Sequences, len(want))
	}
	for i, w := range want {
		if !set.Sequences[i].Equal(w) {
			t.Errorf("Ψ[%d] = %v, want %v", i, set.Sequences[i], w)
		}
	}
}

// TestPaperExample2Costs verifies formula (1)'s values for all five
// sequences: 3, 3, 4, 3, 3.
func TestPaperExample2Costs(t *testing.T) {
	h := cube.New(5)
	faults := paperFaults()
	wants := map[string]int{
		"(0, 1, 3)": 3,
		"(0, 2, 3)": 3,
		"(1, 2, 3)": 4,
		"(1, 3, 4)": 3,
		"(2, 3, 4)": 3,
	}
	for _, d := range []cube.CutSequence{{0, 1, 3}, {0, 2, 3}, {1, 2, 3}, {1, 3, 4}, {2, 3, 4}} {
		got, err := ExtraCommCost(h, faults, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != wants[d.String()] {
			t.Errorf("cost%v = %d, want %d", d, got, wants[d.String()])
		}
	}
}

// TestPaperExample2Selection verifies the heuristic picks D_1 = (0,1,3)
// (minimum cost, ties broken toward the first) and the dangling
// processors come out as 18, 25, 26, 27 with local address 10.
func TestPaperExample2Selection(t *testing.T) {
	p, err := BuildPlan(5, paperFaults())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Chosen.Equal(cube.CutSequence{0, 1, 3}) {
		t.Fatalf("D_β = %v, want (0, 1, 3)", p.Chosen)
	}
	if p.ExtraComm != 3 {
		t.Errorf("extra comm = %d, want 3", p.ExtraComm)
	}
	if w := DanglingW(p.Split, p.Faults); w != 0b10 {
		t.Errorf("dangling w = %02b, want 10", w)
	}
	want := []cube.NodeID{18, 25, 26, 27}
	if len(p.Dangling) != len(want) {
		t.Fatalf("dangling = %v, want %v", p.Dangling, want)
	}
	for i := range want {
		if p.Dangling[i] != want[i] {
			t.Fatalf("dangling = %v, want %v", p.Dangling, want)
		}
	}
}

func TestTrivialFaultCounts(t *testing.T) {
	for _, faults := range []cube.NodeSet{nil, cube.NewNodeSet(), cube.NewNodeSet(9)} {
		set, err := FindCuttingSet(cube.New(4), faults)
		if err != nil {
			t.Fatal(err)
		}
		if set.Mincut != 0 || len(set.Sequences) != 1 || len(set.Sequences[0]) != 0 {
			t.Errorf("faults %v: set = %+v", faults, set)
		}
	}
}

func TestFindCuttingSetRejectsOutOfCube(t *testing.T) {
	if _, err := FindCuttingSet(cube.New(3), cube.NewNodeSet(8)); err == nil {
		t.Error("fault outside cube accepted")
	}
}

func TestTwoFaultsOneCut(t *testing.T) {
	// Any two distinct faults are separated by each dimension they differ
	// in, so mincut = 1 and |Ψ| = HammingDistance.
	h := cube.New(5)
	set, err := FindCuttingSet(h, cube.NewNodeSet(0b00000, 0b10110))
	if err != nil {
		t.Fatal(err)
	}
	if set.Mincut != 1 {
		t.Fatalf("mincut = %d", set.Mincut)
	}
	if len(set.Sequences) != 3 {
		t.Fatalf("|Ψ| = %d, want HD = 3 (%v)", len(set.Sequences), set.Sequences)
	}
	for _, d := range set.Sequences {
		if len(d) != 1 {
			t.Fatal("non-singleton sequence for two faults")
		}
	}
}

// bruteMincut computes the true minimum cut size by exhaustive subset
// enumeration, the specification FindCuttingSet must match.
func bruteMincut(h cube.Hypercube, faults cube.NodeSet) int {
	n := h.Dim()
	for k := 0; k <= n; k++ {
		for _, dims := range cube.Combinations(n, k) {
			sp := cube.MustSplit(h, cube.CutSequence(dims))
			if sp.IsSingleFault(faults) {
				return k
			}
		}
	}
	return -1
}

func TestMincutMatchesBruteForce(t *testing.T) {
	r := xrand.New(42)
	for _, n := range []int{3, 4, 5, 6} {
		h := cube.New(n)
		for trial := 0; trial < 120; trial++ {
			nf := 2 + r.IntN(n-1) // 2..n faults: also exercise r = n
			if nf > (1 << n) {
				nf = 1 << n
			}
			faults := cube.NewNodeSet()
			for _, f := range r.Sample(h.Size(), nf) {
				faults.Add(cube.NodeID(f))
			}
			set, err := FindCuttingSet(h, faults)
			if err != nil {
				t.Fatalf("n=%d faults=%v: %v", n, faults.Sorted(), err)
			}
			if want := bruteMincut(h, faults); set.Mincut != want {
				t.Fatalf("n=%d faults=%v: mincut %d, brute force %d", n, faults.Sorted(), set.Mincut, want)
			}
			// Every member of Ψ must actually induce a single-fault
			// structure of the mincut length.
			for _, d := range set.Sequences {
				if len(d) != set.Mincut {
					t.Fatalf("sequence %v has wrong length", d)
				}
				if !cube.MustSplit(h, d).IsSingleFault(faults) {
					t.Fatalf("sequence %v not single-fault for %v", d, faults.Sorted())
				}
			}
		}
	}
}

// TestCuttingSetComplete certifies the cutting-set search on every
// placement of 2–4 faults in Q_5 (41,416 of them) rather than a sample:
// no smaller dimension set may separate the faults, and Ψ must be exactly
// the brute-force list of mincut-sized dimension sets that leave at most
// one fault per subcube, in Combinations order.
func TestCuttingSetComplete(t *testing.T) {
	const n = 5
	h := cube.New(n)
	type cut struct {
		seq   cube.CutSequence
		split *cube.Split
	}
	cuts := make([][]cut, n+1) // cuts[m]: every m-dimension set, in Combinations order
	for m := range cuts {
		for _, dims := range cube.Combinations(n, m) {
			seq := cube.CutSequence(dims)
			cuts[m] = append(cuts[m], cut{seq, cube.MustSplit(h, seq)})
		}
	}
	placements := 0
	for r := 2; r <= 4; r++ {
		for _, ids := range cube.Combinations(h.Size(), r) {
			placements++
			faults := cube.NewNodeSet()
			for _, id := range ids {
				faults.Add(cube.NodeID(id))
			}
			set, err := FindCuttingSet(h, faults)
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < set.Mincut; m++ {
				for _, c := range cuts[m] {
					if c.split.IsSingleFault(faults) {
						t.Fatalf("faults %v: mincut %d, but %v already separates", faults.Sorted(), set.Mincut, c.seq)
					}
				}
			}
			var want []cube.CutSequence
			for _, c := range cuts[set.Mincut] {
				if c.split.IsSingleFault(faults) {
					want = append(want, c.seq)
				}
			}
			if len(want) != len(set.Sequences) {
				t.Fatalf("faults %v: |Ψ| = %d, brute force %d", faults.Sorted(), len(set.Sequences), len(want))
			}
			for i := range want {
				if !set.Sequences[i].Equal(want[i]) {
					t.Fatalf("faults %v: Ψ[%d] = %v, want %v", faults.Sorted(), i, set.Sequences[i], want[i])
				}
			}
		}
	}
	if placements != 41416 {
		t.Fatalf("walked %d placements, want 41,416", placements)
	}
}

func TestExtraCommCostRejectsBadSequence(t *testing.T) {
	h := cube.New(4)
	faults := cube.NewNodeSet(0, 1) // differ only in dim 0
	if _, err := ExtraCommCost(h, faults, cube.CutSequence{1}); err == nil {
		t.Error("non-separating sequence accepted")
	}
	if _, err := ExtraCommCost(h, faults, cube.CutSequence{9}); err == nil {
		t.Error("invalid sequence accepted")
	}
}

func TestSelectEmptySet(t *testing.T) {
	if _, _, err := Select(cube.New(3), nil, CutSet{}); err == nil {
		t.Error("empty Ψ accepted")
	}
}

func TestPlanInvariants(t *testing.T) {
	r := xrand.New(44)
	for _, n := range []int{3, 4, 5, 6} {
		h := cube.New(n)
		for trial := 0; trial < 60; trial++ {
			nf := r.IntN(n) // 0..n-1 faults (the paper's regime)
			faults := cube.NewNodeSet()
			for _, f := range r.Sample(h.Size(), nf) {
				faults.Add(cube.NodeID(f))
			}
			p, err := BuildPlan(n, faults)
			if err != nil {
				t.Fatalf("n=%d faults=%v: %v", n, faults.Sorted(), err)
			}
			if nf == 0 {
				if p.HasDead || p.Working() != h.Size() || p.Utilization() != 1 {
					t.Fatalf("fault-free plan wrong: %+v", p)
				}
				continue
			}
			// Every subcube has exactly one dead node; faults are dead.
			if len(p.DeadW) != p.NumSubcubes() {
				t.Fatal("DeadW size wrong")
			}
			deadSet := cube.NewNodeSet()
			for v := 0; v < p.NumSubcubes(); v++ {
				deadSet.Add(p.DeadOf(cube.NodeID(v)))
			}
			if len(deadSet) != p.NumSubcubes() {
				t.Fatal("dead nodes not distinct")
			}
			for f := range faults {
				if !deadSet.Has(f) {
					t.Fatalf("fault %d not dead", f)
				}
			}
			// Dangling = dead minus faults, all healthy.
			if len(p.Dangling) != p.NumSubcubes()-nf {
				t.Fatalf("dangling count %d, want %d", len(p.Dangling), p.NumSubcubes()-nf)
			}
			for _, d := range p.Dangling {
				if faults.Has(d) {
					t.Fatalf("dangling %d is faulty", d)
				}
			}
			// Working processors = N - 2^m; utilization consistent.
			if p.Working() != h.Size()-p.NumSubcubes() {
				t.Fatal("working count wrong")
			}
			// Paper's bound: with r <= n-1 faults, dangling <= N/4.
			if len(p.Dangling) > h.Size()/4 {
				t.Fatalf("n=%d faults=%v: %d dangling > N/4", n, faults.Sorted(), len(p.Dangling))
			}
		}
	}
}

func TestPlanDeadOfPanicsWithoutFaults(t *testing.T) {
	p, err := BuildPlan(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("DeadOf on fault-free plan did not panic")
		}
	}()
	p.DeadOf(0)
}

func TestPlanString(t *testing.T) {
	p, err := BuildPlan(5, paperFaults())
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if s == "" {
		t.Error("empty String")
	}
}

func TestSingleFaultPlanUsesWholeCube(t *testing.T) {
	p, err := BuildPlan(4, cube.NewNodeSet(11))
	if err != nil {
		t.Fatal(err)
	}
	if p.Mincut() != 0 || p.NumSubcubes() != 1 || p.Working() != 15 {
		t.Fatalf("plan = %+v", p)
	}
	if p.DeadOf(0) != 11 {
		t.Errorf("dead = %d, want the fault 11", p.DeadOf(0))
	}
	if len(p.Dangling) != 0 {
		t.Error("single fault should not create dangling processors")
	}
}

// TestTwoFaultPlanNoDangling checks the paper's claim: two faults
// partition Q_n into two half-cubes, each with one fault — zero dangling.
func TestTwoFaultPlanNoDangling(t *testing.T) {
	r := xrand.New(45)
	for trial := 0; trial < 50; trial++ {
		s := r.Sample(64, 2)
		p, err := BuildPlan(6, cube.NewNodeSet(cube.NodeID(s[0]), cube.NodeID(s[1])))
		if err != nil {
			t.Fatal(err)
		}
		if p.Mincut() != 1 || len(p.Dangling) != 0 {
			t.Fatalf("faults %v: mincut %d dangling %v", s, p.Mincut(), p.Dangling)
		}
		if p.Utilization() != 1 {
			t.Errorf("utilization = %v, want 1", p.Utilization())
		}
	}
}

func TestNodesVisitedBound(t *testing.T) {
	// The paper bounds the tree at 2^n - 1 nodes.
	h := cube.New(6)
	set, err := FindCuttingSet(h, cube.NewNodeSet(0, 1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if set.NodesVisited > 63 {
		t.Errorf("visited %d > 2^6-1", set.NodesVisited)
	}
}

func TestBuildPlanWithSequence(t *testing.T) {
	faults := paperFaults()
	// Force the paper's D_3 = (1, 2, 3) instead of the heuristic's D_1.
	p, err := BuildPlanWithSequence(5, faults, cube.CutSequence{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Chosen.Equal(cube.CutSequence{1, 2, 3}) || p.ExtraComm != 4 {
		t.Fatalf("plan = %v cost %d", p.Chosen, p.ExtraComm)
	}
	if p.Mincut() != 3 || len(p.Dangling) != 4 {
		t.Fatalf("mincut %d dangling %v", p.Mincut(), p.Dangling)
	}
	// Rejections: non-separating and invalid sequences.
	if _, err := BuildPlanWithSequence(5, faults, cube.CutSequence{0}); err == nil {
		t.Error("non-separating sequence accepted")
	}
	if _, err := BuildPlanWithSequence(5, faults, cube.CutSequence{9}); err == nil {
		t.Error("invalid dimension accepted")
	}
	// Fault-free: any sequence is fine, no dead nodes.
	p0, err := BuildPlanWithSequence(4, nil, cube.CutSequence{2})
	if err != nil {
		t.Fatal(err)
	}
	if p0.HasDead || p0.Working() != 16 {
		t.Errorf("fault-free forced plan wrong: %+v", p0)
	}
}

func TestUtilizationDegenerate(t *testing.T) {
	// A fully faulty Q_0 has zero healthy processors.
	p := &Plan{Cube: cube.New(0), Faults: cube.NewNodeSet(0)}
	if p.Utilization() != 0 {
		t.Error("utilization of dead machine should be 0")
	}
}
