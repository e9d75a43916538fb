package cube

import (
	"testing"
	"testing/quick"
)

// TestPaperSplitExample reproduces the paper's §3 example: Q_5 cut along
// D = (0, 1, 3) has subcube address space {v2 v1 v0} = {u3 u1 u0} and local
// space {w1 w0} = {u4 u2}.
func TestPaperSplitExample(t *testing.T) {
	h := New(5)
	sp := MustSplit(h, CutSequence{0, 1, 3})
	if sp.M() != 3 || sp.S() != 2 {
		t.Fatalf("M/S = %d/%d, want 3/2", sp.M(), sp.S())
	}
	// u = u4 u3 u2 u1 u0 = 1 0 1 1 0 (22): v = u3u1u0 = 010, w = u4u2 = 11.
	u := NodeID(0b10110)
	if v := sp.V(u); v != 0b010 {
		t.Errorf("V(%05b) = %03b, want 010", u, v)
	}
	if w := sp.W(u); w != 0b11 {
		t.Errorf("W(%05b) = %02b, want 11", u, w)
	}
	if back := sp.Compose(sp.V(u), sp.W(u)); back != u {
		t.Errorf("Compose round trip = %05b, want %05b", back, u)
	}
}

// TestPaperExample2FaultPlacement checks the fault-to-subcube mapping of
// the paper's Example 2: faults 00011, 00101, 10000, 11000 under
// D = (0,1,3) land in subcubes 011, 001, 000, 100 with local addresses
// 00, 01, 10, 10.
func TestPaperExample2FaultPlacement(t *testing.T) {
	h := New(5)
	sp := MustSplit(h, CutSequence{0, 1, 3})
	cases := []struct {
		fault NodeID
		v, w  NodeID
	}{
		{0b00011, 0b011, 0b00},
		{0b00101, 0b001, 0b01},
		{0b10000, 0b000, 0b10},
		{0b11000, 0b100, 0b10},
	}
	for _, c := range cases {
		if v := sp.V(c.fault); v != c.v {
			t.Errorf("V(%05b) = %03b, want %03b", c.fault, v, c.v)
		}
		if w := sp.W(c.fault); w != c.w {
			t.Errorf("W(%05b) = %02b, want %02b", c.fault, w, c.w)
		}
	}
}

// TestPaperExample2DanglingAddresses checks the paper's dangling-processor
// address reconstruction: v in {010, 101, 110, 111} with w = 10 compose to
// global addresses 18, 25, 26, 27.
func TestPaperExample2DanglingAddresses(t *testing.T) {
	h := New(5)
	sp := MustSplit(h, CutSequence{0, 1, 3})
	want := map[NodeID]NodeID{0b010: 18, 0b101: 25, 0b110: 26, 0b111: 27}
	for v, addr := range want {
		if got := sp.Compose(v, 0b10); got != addr {
			t.Errorf("Compose(%03b, 10) = %d, want %d", v, got, addr)
		}
	}
}

func TestSplitValidate(t *testing.T) {
	h := New(4)
	if _, err := NewSplit(h, CutSequence{0, 0}); err == nil {
		t.Error("repeated dimension accepted")
	}
	if _, err := NewSplit(h, CutSequence{4}); err == nil {
		t.Error("out-of-range dimension accepted")
	}
	if _, err := NewSplit(h, CutSequence{0, 1, 2, 3}); err != nil {
		t.Errorf("full cut rejected: %v", err)
	}
}

func TestMustSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSplit did not panic on invalid sequence")
		}
	}()
	MustSplit(New(3), CutSequence{7})
}

func TestSplitBijection(t *testing.T) {
	// (V, W) must be a bijection from Q_n addresses to (v, w) pairs.
	h := New(6)
	sp := MustSplit(h, CutSequence{5, 2, 0})
	seen := make(map[[2]NodeID]NodeID)
	for u := NodeID(0); u < NodeID(h.Size()); u++ {
		key := [2]NodeID{sp.V(u), sp.W(u)}
		if prev, dup := seen[key]; dup {
			t.Fatalf("addresses %d and %d map to same (v,w) %v", prev, u, key)
		}
		seen[key] = u
		if sp.Compose(key[0], key[1]) != u {
			t.Fatalf("Compose(V,W) != identity for %d", u)
		}
	}
}

func TestSplitComposeQuick(t *testing.T) {
	h := New(10)
	sp := MustSplit(h, CutSequence{9, 4, 1, 7})
	f := func(raw uint32) bool {
		u := NodeID(raw) & NodeID(h.Size()-1)
		return sp.Compose(sp.V(u), sp.W(u)) == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubcubeOfMatchesV(t *testing.T) {
	h := New(6)
	sp := MustSplit(h, CutSequence{1, 3})
	for u := NodeID(0); u < NodeID(h.Size()); u++ {
		sc := sp.SubcubeOf(sp.V(u))
		if !sc.Contains(u) {
			t.Fatalf("SubcubeOf(V(%d)) does not contain %d", u, u)
		}
		if sc.Dim(h) != sp.S() {
			t.Fatalf("subcube dim %d != S %d", sc.Dim(h), sp.S())
		}
	}
}

func TestGroupFaultsAndIsSingleFault(t *testing.T) {
	h := New(5)
	sp := MustSplit(h, CutSequence{0, 1, 3})
	faults := NewNodeSet(0b00011, 0b00101, 0b10000, 0b11000)
	if !sp.IsSingleFault(faults) {
		t.Fatal("paper Example 1 split should be single-fault")
	}
	// Fault 00011 sits in subcube 011 at local address 00, fault 10000
	// in subcube 000 at local address 10.
	if v, w := sp.V(0b00011), sp.W(0b00011); v != 0b011 || w != 0b00 {
		t.Errorf("fault 00011 -> v=%03b w=%02b", v, w)
	}
	if v, w := sp.V(0b10000), sp.W(0b10000); v != 0b000 || w != 0b10 {
		t.Errorf("fault 10000 -> v=%03b w=%02b", v, w)
	}
	// Two faults in the same subcube break the property.
	bad := NewNodeSet(0, 0b00100) // both have v = 000 under D = (0,1,3)
	if sp.IsSingleFault(bad) {
		t.Error("two faults in one subcube reported as single-fault")
	}
}

func TestNeighborSubcubeAndDimMaps(t *testing.T) {
	h := New(5)
	sp := MustSplit(h, CutSequence{0, 1, 3})
	if nb := sp.NeighborSubcube(0b011, 1); nb != 0b001 {
		t.Errorf("NeighborSubcube(011, 1) = %03b", nb)
	}
	// Subcube dimension i lives on d_{i+1}; local dimension j on the
	// j-th non-cut dimension.
	for i, d := range []int{0, 1, 3} {
		if got := sp.Compose(1<<i, 0); got != 1<<d {
			t.Errorf("subcube dim %d maps to %05b, want dim %d", i, got, d)
		}
	}
	for j, d := range []int{2, 4} {
		if got := sp.Compose(0, 1<<j); got != 1<<d {
			t.Errorf("local dim %d maps to %05b, want dim %d", j, got, d)
		}
	}
}

func TestCutSequenceHelpers(t *testing.T) {
	d := CutSequence{0, 1, 3}
	if d.String() != "(0, 1, 3)" {
		t.Errorf("String = %q", d.String())
	}
	if !d.Equal(d.Clone()) {
		t.Error("Clone not equal")
	}
	if d.Equal(CutSequence{0, 1}) || d.Equal(CutSequence{0, 1, 4}) {
		t.Error("Equal false positives")
	}
	c := d.Clone()
	c[0] = 2
	if d[0] != 0 {
		t.Error("Clone not independent")
	}
}

// TestSplitSubcubesPartitionCube verifies the 2^m subcubes of a split
// tile Q_n exactly: disjoint and covering.
func TestSplitSubcubesPartitionCube(t *testing.T) {
	h := New(6)
	sp := MustSplit(h, CutSequence{2, 5, 0})
	for id := NodeID(0); id < NodeID(h.Size()); id++ {
		covered := 0
		for v := NodeID(0); v < NodeID(sp.NumSubcubes()); v++ {
			if sp.SubcubeOf(v).Contains(id) {
				covered++
			}
		}
		if covered != 1 {
			t.Fatalf("node %d covered %d times", id, covered)
		}
	}
}
