package cube

import (
	"testing"
	"testing/quick"
)

func TestSubcubeParseFormat(t *testing.T) {
	h := New(5)
	sc, err := ParseSubcube("1*0*1")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mask != 0b10101 || sc.Value != 0b10001 {
		t.Fatalf("ParseSubcube = %+v", sc)
	}
	if got := sc.Format(h); got != "1*0*1" {
		t.Errorf("Format = %q", got)
	}
	if sc.Dim(h) != 2 || sc.Size(h) != 4 {
		t.Errorf("Dim/Size = %d/%d", sc.Dim(h), sc.Size(h))
	}
}

func TestSubcubeParseErrors(t *testing.T) {
	if _, err := ParseSubcube(""); err == nil {
		t.Error("empty accepted")
	}
	if _, err := ParseSubcube("1*x"); err == nil {
		t.Error("invalid symbol accepted")
	}
}

func TestSubcubeContains(t *testing.T) {
	sc, _ := ParseSubcube("1*0*1")
	for _, id := range []NodeID{0b10001, 0b10011, 0b11001, 0b11011} {
		if !sc.Contains(id) {
			t.Errorf("subcube should contain %05b", id)
		}
	}
	for _, id := range []NodeID{0b00001, 0b10000, 0b10101} {
		if sc.Contains(id) {
			t.Errorf("subcube should not contain %05b", id)
		}
	}
}

func TestWholeCubeAndSingleNode(t *testing.T) {
	h := New(4)
	if got := WholeCube().Size(h); got != 16 {
		t.Errorf("WholeCube size = %d", got)
	}
	sn := Subcube{Mask: 0b1111, Value: 9}
	if sn.Size(h) != 1 || !sn.Contains(9) || sn.Contains(8) {
		t.Errorf("single-node subcube wrong: %+v", sn)
	}
}

func TestFreeAndFixedDims(t *testing.T) {
	h := New(5)
	sc, _ := ParseSubcube("1*0*1")
	free := sc.FreeDims(h)
	if len(free) != 2 || free[0] != 1 || free[1] != 3 {
		t.Errorf("FreeDims = %v", free)
	}
}

func TestEnumerateSubcubesCount(t *testing.T) {
	h := New(4)
	// C(n,dim) * 2^(n-dim) subcubes of each dimension.
	wants := map[int]int{0: 16, 1: 4 * 8, 2: 6 * 4, 3: 4 * 2, 4: 1}
	for dim, want := range wants {
		got := len(EnumerateSubcubes(h, dim))
		if got != want {
			t.Errorf("EnumerateSubcubes(Q4, %d) = %d, want %d", dim, got, want)
		}
	}
	if EnumerateSubcubes(h, -1) != nil || EnumerateSubcubes(h, 5) != nil {
		t.Error("out-of-range dim should yield nil")
	}
}

func TestEnumerateSubcubesPartitionProperty(t *testing.T) {
	// Every node of Q_n appears in exactly C(n, k) subcubes of dimension k.
	h := New(5)
	for k := 0; k <= 5; k++ {
		counts := make(map[NodeID]int)
		for _, sc := range EnumerateSubcubes(h, k) {
			for id := NodeID(0); id < 32; id++ {
				if sc.Contains(id) {
					counts[id]++
				}
			}
		}
		want := len(Combinations(5, k))
		for id := NodeID(0); id < 32; id++ {
			if counts[id] != want {
				t.Fatalf("node %d appears in %d %d-subcubes, want %d", id, counts[id], k, want)
			}
		}
	}
}

func TestCombinations(t *testing.T) {
	c := Combinations(4, 2)
	if len(c) != 6 {
		t.Fatalf("C(4,2) yielded %d subsets", len(c))
	}
	if c[0][0] != 0 || c[0][1] != 1 || c[5][0] != 2 || c[5][1] != 3 {
		t.Errorf("Combinations order wrong: %v", c)
	}
	if got := Combinations(3, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("C(3,0) = %v", got)
	}
	if Combinations(3, 4) != nil {
		t.Error("C(3,4) should be nil")
	}
}

func TestSubcubeStringDefault(t *testing.T) {
	sc, _ := ParseSubcube("1*0")
	if got := sc.String(); got == "" {
		t.Error("String should not be empty")
	}
}

func TestSubcubeRoundTripQuick(t *testing.T) {
	h := New(8)
	f := func(mask, val uint32) bool {
		sc := Subcube{Mask: NodeID(mask) & 0xFF, Value: NodeID(val&mask) & 0xFF}
		back, err := ParseSubcube(sc.Format(h))
		return err == nil && back == sc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
