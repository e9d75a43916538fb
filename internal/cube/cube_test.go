package cube

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, MaxDim + 1, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestSizeAndDim(t *testing.T) {
	for n := 0; n <= 10; n++ {
		h := New(n)
		if h.Dim() != n {
			t.Errorf("Dim() = %d, want %d", h.Dim(), n)
		}
		if h.Size() != 1<<n {
			t.Errorf("Size() = %d, want %d", h.Size(), 1<<n)
		}
	}
}

func TestContains(t *testing.T) {
	h := New(4)
	if !h.Contains(0) || !h.Contains(15) {
		t.Error("Q_4 should contain 0 and 15")
	}
	if h.Contains(16) {
		t.Error("Q_4 should not contain 16")
	}
}

func TestNeighbor(t *testing.T) {
	h := New(5)
	if got := h.Neighbor(0b00101, 1); got != 0b00111 {
		t.Errorf("Neighbor(00101, 1) = %05b, want 00111", got)
	}
	if got := h.Neighbor(0b00101, 0); got != 0b00100 {
		t.Errorf("Neighbor(00101, 0) = %05b, want 00100", got)
	}
}

func TestNeighborPanics(t *testing.T) {
	h := New(3)
	defer func() {
		if recover() == nil {
			t.Error("Neighbor with d=3 on Q_3 did not panic")
		}
	}()
	h.Neighbor(0, 3)
}

func TestNeighborsAreAtDistanceOne(t *testing.T) {
	h := New(6)
	for id := NodeID(0); id < NodeID(h.Size()); id += 7 {
		for d := 0; d < h.Dim(); d++ {
			if nb := h.Neighbor(id, d); HammingDistance(id, nb) != 1 {
				t.Fatalf("neighbor %d of %d at distance %d", nb, id, HammingDistance(id, nb))
			}
		}
	}
}

func TestNeighborInvolution(t *testing.T) {
	h := New(8)
	f := func(id uint32, d uint8) bool {
		node := NodeID(id) & NodeID(h.Size()-1)
		dim := int(d) % h.Dim()
		return h.Neighbor(h.Neighbor(node, dim), dim) == node
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitSetFlip(t *testing.T) {
	id := NodeID(0b1010)
	if Bit(id, 1) != 1 || Bit(id, 0) != 0 {
		t.Error("Bit extraction wrong")
	}
	if FlipBit(id, 3) != 0b0010 {
		t.Error("FlipBit wrong")
	}
}

func TestHammingDistanceProperties(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := NodeID(a), NodeID(b)
		d := HammingDistance(x, y)
		return d == HammingDistance(y, x) &&
			d == bits.OnesCount32(a^b) &&
			(d == 0) == (x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingTriangleInequality(t *testing.T) {
	f := func(a, b, c uint32) bool {
		x, y, z := NodeID(a), NodeID(b), NodeID(c)
		return HammingDistance(x, z) <= HammingDistance(x, y)+HammingDistance(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDifferingDims(t *testing.T) {
	dims := DifferingDims(0b10110, 0b00011)
	want := []int{0, 2, 4}
	if len(dims) != len(want) {
		t.Fatalf("DifferingDims = %v, want %v", dims, want)
	}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("DifferingDims = %v, want %v", dims, want)
		}
	}
}

func TestNodeSet(t *testing.T) {
	s := NewNodeSet(5, 3, 5, 9)
	if len(s) != 3 {
		t.Fatalf("set size = %d, want 3 (duplicates dropped)", len(s))
	}
	if !s.Has(3) || !s.Has(5) || !s.Has(9) || s.Has(4) {
		t.Error("membership wrong")
	}
	sorted := s.Sorted()
	if sorted[0] != 3 || sorted[1] != 5 || sorted[2] != 9 {
		t.Errorf("Sorted = %v", sorted)
	}
	c := s.Clone()
	c.Add(7)
	if s.Has(7) {
		t.Error("Clone is not independent")
	}
}

func TestFormatParseAddr(t *testing.T) {
	if got := FormatAddr(0b00011, 5); got != "00011" {
		t.Errorf("FormatAddr = %q", got)
	}
	// An address parses back as the 0-dimensional subcube it names.
	sc, err := ParseSubcube(FormatAddr(24, 5))
	if err != nil || sc.Mask != 0b11111 || sc.Value != 24 {
		t.Errorf("ParseSubcube(FormatAddr(24, 5)) = %+v, %v", sc, err)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		id := NodeID(raw) & 0xFFFFF // 20 bits
		got, err := ParseSubcube(FormatAddr(id, 20))
		return err == nil && got.Mask == 0xFFFFF && got.Value == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEdgeBasics(t *testing.T) {
	e := NewEdge(5, 4)
	if e.A != 4 || e.B != 5 {
		t.Errorf("edge not normalized: %+v", e)
	}
	if e.Dim() != 0 {
		t.Errorf("edge dim = %d", e.Dim())
	}
	if NewEdge(2, 6).Dim() != 2 {
		t.Error("edge dim wrong")
	}
}

func TestNewEdgePanicsOnNonNeighbors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-neighbor edge did not panic")
		}
	}()
	NewEdge(0, 3)
}

func TestEdgeSet(t *testing.T) {
	s := NewEdgeSet(NewEdge(0, 1))
	if !s.Has(1, 0) || !s.Has(0, 1) {
		t.Error("membership should be direction-independent")
	}
	if s.Has(2, 3) {
		t.Error("phantom member")
	}
	s.Add(6, 2)
	if len(s) != 2 {
		t.Error("Add failed")
	}
	c := s.Clone()
	c.Add(4, 5)
	if len(s) != 2 {
		t.Error("Clone not independent")
	}
	sorted := s.Sorted()
	if len(sorted) != 2 || sorted[0].A != 0 || sorted[1].A != 2 {
		t.Errorf("Sorted = %v", sorted)
	}
}

func TestEdgesEnumeration(t *testing.T) {
	for n := 1; n <= 5; n++ {
		h := New(n)
		edges := h.Edges()
		want := n << uint(n-1)
		if len(edges) != want {
			t.Fatalf("Q_%d: %d edges, want %d", n, len(edges), want)
		}
		seen := NewEdgeSet()
		for _, e := range edges {
			if HammingDistance(e.A, e.B) != 1 || e.A >= e.B {
				t.Fatalf("bad edge %+v", e)
			}
			if seen.Has(e.A, e.B) {
				t.Fatalf("duplicate edge %+v", e)
			}
			seen.Add(e.A, e.B)
		}
	}
	if got := New(0).Edges(); len(got) != 0 {
		t.Errorf("Q_0 edges = %v", got)
	}
}
