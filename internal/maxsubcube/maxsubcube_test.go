package maxsubcube

import (
	"math"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/xrand"
)

func TestFindNoFaults(t *testing.T) {
	h := cube.New(4)
	sc, k := Find(h, nil)
	if k != 4 || sc.Size(h) != 16 {
		t.Fatalf("got dim %d", k)
	}
}

func TestFindOneFault(t *testing.T) {
	h := cube.New(4)
	for f := cube.NodeID(0); f < 16; f++ {
		sc, k := Find(h, cube.NewNodeSet(f))
		if k != 3 {
			t.Fatalf("fault %d: dim %d, want 3", f, k)
		}
		if sc.Contains(f) {
			t.Fatalf("fault %d inside chosen subcube", f)
		}
	}
}

func TestFindComplementaryFaults(t *testing.T) {
	// Faults at 0 and its complement hit every half-cube: dim must be n-2.
	h := cube.New(5)
	sc, k := Find(h, cube.NewNodeSet(0b00000, 0b11111))
	if k != 3 {
		t.Fatalf("dim = %d, want 3", k)
	}
	if sc.Contains(0) || sc.Contains(31) {
		t.Fatal("fault inside subcube")
	}
}

func TestFindAllFaulty(t *testing.T) {
	h := cube.New(2)
	faults := cube.NewNodeSet(0, 1, 2, 3)
	_, k := Find(h, faults)
	if k != -1 {
		t.Fatalf("dim = %d, want -1", k)
	}
}

func TestFindIsMaximal(t *testing.T) {
	// Cross-check: no fault-free subcube of dimension k+1 may exist.
	r := xrand.New(1)
	h := cube.New(5)
	for trial := 0; trial < 100; trial++ {
		nf := 1 + r.IntN(5)
		faults := cube.NewNodeSet()
		for _, f := range r.Sample(h.Size(), nf) {
			faults.Add(cube.NodeID(f))
		}
		sc, k := Find(h, faults)
		for f := range faults {
			if sc.Contains(f) {
				t.Fatalf("fault %d in chosen subcube", f)
			}
		}
		if k < h.Dim() {
			for _, bigger := range cube.EnumerateSubcubes(h, k+1) {
				if faultFree(bigger, faults) {
					t.Fatalf("faults %v: found dim-%d subcube %v but Find returned %d",
						faults.Sorted(), k+1, bigger.Format(h), k)
				}
			}
		}
	}
}

func TestFindDeterministic(t *testing.T) {
	h := cube.New(5)
	faults := cube.NewNodeSet(3, 17)
	a, _ := Find(h, faults)
	b, _ := Find(h, faults)
	if a != b {
		t.Error("Find not deterministic")
	}
}

func TestUtilization(t *testing.T) {
	h := cube.New(6)
	// Paper §1: one fault in Q_6 -> Q_5 usable -> 32/63 ~ 50.8%.
	u := Utilization(h, cube.NewNodeSet(0))
	if math.Abs(u-32.0/63.0) > 1e-9 {
		t.Errorf("utilization = %v", u)
	}
	if Utilization(cube.New(1), cube.NewNodeSet(0, 1)) != 0 {
		t.Error("fully faulty cube should have zero utilization")
	}
}
