package cube

import (
	"fmt"
)

// CutSequence is an ordered list of cutting dimensions D = (d_1, ..., d_m).
// Partitioning Q_n along the dimensions of D in order yields 2^m subcubes
// of dimension s = n - m each: the single-fault subcube structure F_n^m of
// the paper when every subcube ends up with at most one faulty processor.
type CutSequence []int

// Validate checks that the sequence contains distinct dimensions inside
// [0, n).
func (d CutSequence) Validate(h Hypercube) error {
	seen := make(map[int]bool, len(d))
	for _, dim := range d {
		if dim < 0 || dim >= h.Dim() {
			return fmt.Errorf("cube: cutting dimension %d out of range [0,%d)", dim, h.Dim())
		}
		if seen[dim] {
			return fmt.Errorf("cube: cutting dimension %d repeated", dim)
		}
		seen[dim] = true
	}
	if len(d) > h.Dim() {
		return fmt.Errorf("cube: %d cutting dimensions exceed cube dimension %d", len(d), h.Dim())
	}
	return nil
}

// Clone returns an independent copy of the sequence.
func (d CutSequence) Clone() CutSequence { return append(CutSequence(nil), d...) }

// Equal reports element-wise equality.
func (d CutSequence) Equal(o CutSequence) bool {
	if len(d) != len(o) {
		return false
	}
	for i := range d {
		if d[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the sequence like the paper: "(0, 1, 3)".
func (d CutSequence) String() string {
	s := "("
	for i, dim := range d {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d", dim)
	}
	return s + ")"
}

// Split is the address-space decomposition induced by cutting Q_n along a
// sequence D = (d_1, ..., d_m). Following the paper's §3 notation, each
// address u in Q_n factors into:
//
//   - an m-bit subcube index {v_{m-1} ... v_0} = {u_{d_m} ... u_{d_1}}
//     (v_i is the coordinate along the (i+1)-th cutting dimension), and
//   - an s-bit local address {w_{s-1} ... w_0} over the remaining s = n-m
//     dimensions, taken in ascending dimension order.
//
// Viewing each subcube as one node, the subcube indices form a Q_m whose
// dimension i corresponds to original dimension d_{i+1}.
type Split struct {
	h       Hypercube
	cuts    CutSequence // d_1..d_m
	rest    []int       // non-cut dimensions, ascending: w_j lives on rest[j]
	cutMask NodeID
}

// NewSplit builds the Split for cutting h along d. The sequence order
// matters for the v-address bit positions (v_i = coordinate along
// d_{i+1}); it returns an error if d is not a valid cut sequence.
func NewSplit(h Hypercube, d CutSequence) (*Split, error) {
	if err := d.Validate(h); err != nil {
		return nil, err
	}
	sp := &Split{h: h, cuts: d.Clone()}
	for _, dim := range d {
		sp.cutMask |= 1 << dim
	}
	for dim := 0; dim < h.Dim(); dim++ {
		if sp.cutMask&(1<<dim) == 0 {
			sp.rest = append(sp.rest, dim)
		}
	}
	return sp, nil
}

// MustSplit is NewSplit for statically known-valid sequences; it panics on
// error and is intended for tests and examples.
func MustSplit(h Hypercube, d CutSequence) *Split {
	sp, err := NewSplit(h, d)
	if err != nil {
		panic(err)
	}
	return sp
}

// Cube returns the underlying hypercube Q_n.
func (sp *Split) Cube() Hypercube { return sp.h }

// M returns m, the number of cutting dimensions (subcube-index width).
func (sp *Split) M() int { return len(sp.cuts) }

// S returns s = n - m, the dimension of each subcube (local width).
func (sp *Split) S() int { return len(sp.rest) }

// NumSubcubes returns 2^m.
func (sp *Split) NumSubcubes() int { return 1 << len(sp.cuts) }

// V extracts the m-bit subcube index of address u: bit i of the result is
// the coordinate of u along cutting dimension d_{i+1}.
func (sp *Split) V(u NodeID) NodeID {
	var v NodeID
	for i, dim := range sp.cuts {
		if u&(1<<dim) != 0 {
			v |= 1 << i
		}
	}
	return v
}

// W extracts the s-bit local address of u within its subcube: bit j of the
// result is the coordinate of u along the j-th non-cut dimension
// (ascending).
func (sp *Split) W(u NodeID) NodeID {
	var w NodeID
	for j, dim := range sp.rest {
		if u&(1<<dim) != 0 {
			w |= 1 << j
		}
	}
	return w
}

// Compose is the inverse of (V, W): it reassembles the full Q_n address
// from a subcube index v and a local address w.
func (sp *Split) Compose(v, w NodeID) NodeID {
	var u NodeID
	for i, dim := range sp.cuts {
		if v&(1<<i) != 0 {
			u |= 1 << dim
		}
	}
	for j, dim := range sp.rest {
		if w&(1<<j) != 0 {
			u |= 1 << dim
		}
	}
	return u
}

// SubcubeOf returns the mask/value subcube holding every address whose
// subcube index is v.
func (sp *Split) SubcubeOf(v NodeID) Subcube {
	var val NodeID
	for i, dim := range sp.cuts {
		if v&(1<<i) != 0 {
			val |= 1 << dim
		}
	}
	return Subcube{Mask: sp.cutMask, Value: val}
}

// IsSingleFault reports whether the split leaves at most one fault per
// subcube, i.e. whether D constructs a single-fault subcube structure
// F_n^m for this fault set.
func (sp *Split) IsSingleFault(faults NodeSet) bool {
	counts := make([]int, sp.NumSubcubes())
	for f := range faults {
		v := sp.V(f)
		counts[v]++
		if counts[v] > 1 {
			return false
		}
	}
	return true
}

// NeighborSubcube returns the subcube index adjacent to v along subcube
// dimension i (i.e. across original dimension d_{i+1}).
func (sp *Split) NeighborSubcube(v NodeID, i int) NodeID { return v ^ (1 << i) }
