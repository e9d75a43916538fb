package partition

import (
	"strings"
	"testing"

	"hypersort/internal/cube"
)

func TestObjectiveString(t *testing.T) {
	if ObjectiveHops.String() != "hops" || ObjectiveCongestion.String() != "congestion" {
		t.Errorf("objective names: %q, %q", ObjectiveHops, ObjectiveCongestion)
	}
	if !strings.Contains(Objective(9).String(), "?") {
		t.Errorf("unknown objective renders %q", Objective(9))
	}
}

// TestExtraCommCostCongestionLowerBound: the congestion objective adds
// per-link contention on top of the hop count, so it can never be
// smaller than formula (1)'s hop-only value for the same sequence.
func TestExtraCommCostCongestionLowerBound(t *testing.T) {
	h := cube.New(5)
	faultSets := []cube.NodeSet{
		cube.NewNodeSet(3, 17),
		cube.NewNodeSet(0, 21, 30),
		cube.NewNodeSet(1, 6, 11, 28),
	}
	for _, faults := range faultSets {
		set, err := FindCuttingSet(h, faults)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range set.Sequences {
			hops, err := ExtraCommCost(h, faults, seq)
			if err != nil {
				t.Fatal(err)
			}
			cong, err := ExtraCommCostCongestion(h, faults, seq)
			if err != nil {
				t.Fatal(err)
			}
			if cong < hops {
				t.Errorf("faults %v seq %v: congestion %d < hops %d",
					faults.Sorted(), seq, cong, hops)
			}
		}
	}
}

// TestSelectObjectiveHopsMatchesSelect: the hops objective is the
// legacy Select, bit for bit — same chosen sequence, same cost.
func TestSelectObjectiveHopsMatchesSelect(t *testing.T) {
	h := cube.New(5)
	faults := cube.NewNodeSet(3, 12, 25)
	set, err := FindCuttingSet(h, faults)
	if err != nil {
		t.Fatal(err)
	}
	legacy, lcost, err := Select(h, faults, set)
	if err != nil {
		t.Fatal(err)
	}
	viaObj, ocost, err := SelectObjective(h, faults, set, ObjectiveHops)
	if err != nil {
		t.Fatal(err)
	}
	if lcost != ocost {
		t.Fatalf("costs diverge: %d vs %d", lcost, ocost)
	}
	for i := range legacy {
		if legacy[i] != viaObj[i] {
			t.Fatalf("sequences diverge: %v vs %v", legacy, viaObj)
		}
	}
}

// TestBuildPlanObjectiveCongestion: the congestion-aware plan is a
// valid single-fault partition and records its objective value.
func TestBuildPlanObjectiveCongestion(t *testing.T) {
	faults := cube.NewNodeSet(3, 12, 25)
	p, err := BuildPlanObjective(5, faults, ObjectiveCongestion)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Split.IsSingleFault(faults) {
		t.Error("congestion plan is not single-fault")
	}
	if p.ExtraComm < 0 {
		t.Errorf("negative objective %d", p.ExtraComm)
	}
	// Fault-free: both objectives are zero and any plan is trivial.
	clean, err := BuildPlanObjective(4, nil, ObjectiveCongestion)
	if err != nil {
		t.Fatal(err)
	}
	if clean.ExtraComm != 0 {
		t.Errorf("fault-free objective = %d", clean.ExtraComm)
	}
	if _, err := BuildPlanObjective(4, nil, Objective(9)); err == nil {
		t.Error("bogus objective accepted")
	}
}

// TestKeyRoutingTag: routing policy 0 appends nothing (pre-multipath
// keys stay byte-identical); nonzero policies get their own keyspace.
func TestKeyRoutingTag(t *testing.T) {
	base := keyForRouting(5, []cube.NodeID{3}, nil, 0, 0)
	if base != "n5|md0|f3|l" {
		t.Fatalf("zero-policy key = %q, want the pre-multipath %q", base, "n5|md0|f3|l")
	}
	multi := keyForRouting(5, []cube.NodeID{3}, nil, 0, 1)
	if multi == base {
		t.Fatal("routing policy not keyed")
	}
	if !strings.HasSuffix(string(multi), "|r1") {
		t.Fatalf("routing tag missing: %q", multi)
	}
}
