package cube

import (
	"fmt"
	"math/bits"
	"strings"
)

// Subcube identifies a subcube of Q_n by the classic mask/value encoding:
// the dimensions set in Mask are fixed to the corresponding bits of Value,
// the remaining dimensions are free. A Subcube with an empty mask is the
// whole cube; a mask of all n bits is a single processor.
//
// In the paper's *-notation a subcube of Q_5 written 1*0*1 has
// Mask = 10101 (dims 0, 2, 4 fixed) and Value = 10001.
type Subcube struct {
	Mask  NodeID // set bits = fixed dimensions
	Value NodeID // fixed coordinates; Value &^ Mask must be zero
}

// WholeCube returns the subcube covering all of Q_n.
func WholeCube() Subcube { return Subcube{} }

// Dim returns the dimension of the subcube within Q_n: the number of free
// dimensions, n minus the number of fixed ones.
func (s Subcube) Dim(h Hypercube) int {
	return h.n - bits.OnesCount32(uint32(s.Mask))
}

// Size returns the number of processors in the subcube within Q_n.
func (s Subcube) Size(h Hypercube) int { return 1 << s.Dim(h) }

// Contains reports whether id lies inside the subcube.
func (s Subcube) Contains(id NodeID) bool { return id&s.Mask == s.Value&s.Mask }

// FreeDims returns the free dimensions of the subcube in Q_n, ascending.
func (s Subcube) FreeDims(h Hypercube) []int {
	out := make([]int, 0, s.Dim(h))
	for d := 0; d < h.n; d++ {
		if s.Mask&(1<<d) == 0 {
			out = append(out, d)
		}
	}
	return out
}

// String renders the subcube in *-notation for an n-bit cube; since the
// Subcube does not carry n, callers wanting exact width should use Format.
func (s Subcube) String() string {
	n := MaxDim
	for n > 1 && s.Mask>>(n-1) == 0 && s.Value>>(n-1) == 0 {
		n--
	}
	return s.Format(New(n))
}

// Format renders the subcube in the paper's *-notation, most significant
// dimension first: fixed dimensions print their coordinate, free
// dimensions print '*'.
func (s Subcube) Format(h Hypercube) string {
	var b strings.Builder
	for d := h.n - 1; d >= 0; d-- {
		switch {
		case s.Mask&(1<<d) == 0:
			b.WriteByte('*')
		case s.Value&(1<<d) != 0:
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	return b.String()
}

// ParseSubcube parses *-notation (e.g. "1*0*1") written most significant
// dimension first, the inverse of Format.
func ParseSubcube(s string) (Subcube, error) {
	if len(s) == 0 || len(s) > MaxDim {
		return Subcube{}, fmt.Errorf("cube: subcube %q must have between 1 and %d symbols", s, MaxDim)
	}
	var sc Subcube
	for _, c := range s {
		sc.Mask <<= 1
		sc.Value <<= 1
		switch c {
		case '*':
		case '0':
			sc.Mask |= 1
		case '1':
			sc.Mask |= 1
			sc.Value |= 1
		default:
			return Subcube{}, fmt.Errorf("cube: subcube %q contains invalid symbol %q", s, c)
		}
	}
	return sc, nil
}

// EnumerateSubcubes yields every subcube of Q_n with exactly dim free
// dimensions. There are C(n, dim) * 2^(n-dim) of them. Order: by free-set
// combination, then by value.
func EnumerateSubcubes(h Hypercube, dim int) []Subcube {
	if dim < 0 || dim > h.n {
		return nil
	}
	var out []Subcube
	combos := Combinations(h.n, h.n-dim) // fixed-dimension choices
	for _, fixed := range combos {
		var mask NodeID
		for _, d := range fixed {
			mask |= 1 << d
		}
		// Enumerate all assignments of the fixed dimensions.
		k := len(fixed)
		for v := 0; v < 1<<k; v++ {
			var val NodeID
			for j, d := range fixed {
				if v>>uint(j)&1 == 1 {
					val |= 1 << d
				}
			}
			out = append(out, Subcube{Mask: mask, Value: val})
		}
	}
	return out
}

// Combinations returns all k-element subsets of {0, 1, ..., n-1}, each in
// ascending order, in lexicographic order of the subsets.
func Combinations(n, k int) [][]int {
	if k < 0 || k > n {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
