// Package cube implements the address algebra of binary n-dimensional
// hypercubes (binary n-cubes): node addresses, neighbor relations, Hamming
// distance, subcube (mask/value) arithmetic, and partitioning a cube along
// an ordered sequence of cutting dimensions.
//
// Throughout the package a hypercube Q_n has N = 2^n processors addressed
// 0..N-1. Bit d of an address is the coordinate along dimension d; two
// processors are neighbors iff their addresses differ in exactly one bit.
// The package follows the notation of Sheu, Chen and Chang, "Fault-Tolerant
// Sorting Algorithm on Hypercube Multicomputers" (ICPP 1992): the address
// space of Q_n is written {u_{n-1} u_{n-2} ... u_0}.
package cube

import (
	"fmt"
	"math/bits"
	"sort"
)

// MaxDim is the largest supported hypercube dimension. 24 keeps every
// address comfortably inside a uint32 and an exhaustive 2^n enumeration
// tractable; the paper's experiments use n <= 6.
const MaxDim = 24

// NodeID is the address of one processor in a hypercube. Bit d of a NodeID
// is the processor's coordinate along dimension d.
type NodeID uint32

// Hypercube describes an n-dimensional binary cube. The zero value is the
// degenerate 1-processor cube Q_0.
type Hypercube struct {
	n int
}

// New returns the n-dimensional hypercube Q_n. It panics if n is negative
// or larger than MaxDim; topology dimensions are static configuration, so a
// bad value is a programming error rather than a runtime condition.
func New(n int) Hypercube {
	if n < 0 || n > MaxDim {
		panic(fmt.Sprintf("cube: dimension %d out of range [0,%d]", n, MaxDim))
	}
	return Hypercube{n: n}
}

// Dim returns n, the dimension of the cube.
func (h Hypercube) Dim() int { return h.n }

// Size returns N = 2^n, the number of processors.
func (h Hypercube) Size() int { return 1 << h.n }

// Contains reports whether id is a valid address in this cube.
func (h Hypercube) Contains(id NodeID) bool { return uint64(id) < uint64(1)<<h.n }

// Neighbor returns the neighbor of id along dimension d.
// It panics if d is outside [0, n).
func (h Hypercube) Neighbor(id NodeID, d int) NodeID {
	if d < 0 || d >= h.n {
		panic(fmt.Sprintf("cube: dimension %d out of range [0,%d)", d, h.n))
	}
	return id ^ (1 << d)
}

// Bit returns bit d (coordinate u_d) of id as 0 or 1.
func Bit(id NodeID, d int) int { return int(id>>uint(d)) & 1 }

// FlipBit returns id with bit d inverted.
func FlipBit(id NodeID, d int) NodeID { return id ^ (1 << d) }

// HammingDistance returns the number of bit positions in which a and b
// differ; on a hypercube this is the length of a shortest path between
// them (the paper's HD function).
func HammingDistance(a, b NodeID) int { return bits.OnesCount32(uint32(a ^ b)) }

// DifferingDims returns the dimensions in which a and b differ, ascending.
// It is the support of a XOR b and has length HammingDistance(a, b).
func DifferingDims(a, b NodeID) []int {
	x := uint32(a ^ b)
	out := make([]int, 0, bits.OnesCount32(x))
	for x != 0 {
		d := bits.TrailingZeros32(x)
		out = append(out, d)
		x &= x - 1
	}
	return out
}

// NodeSet is a set of processor addresses, used for fault sets. The zero
// value is an empty set ready for use after make or via NewNodeSet.
type NodeSet map[NodeID]struct{}

// NewNodeSet builds a set from the given addresses, dropping duplicates.
func NewNodeSet(ids ...NodeID) NodeSet {
	s := make(NodeSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Has reports whether id is a member of the set.
func (s NodeSet) Has(id NodeID) bool { _, ok := s[id]; return ok }

// Add inserts id into the set.
func (s NodeSet) Add(id NodeID) { s[id] = struct{}{} }

// Sorted returns the members in ascending address order.
func (s NodeSet) Sorted() []NodeID {
	out := make([]NodeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy of the set.
func (s NodeSet) Clone() NodeSet {
	out := make(NodeSet, len(s))
	for id := range s {
		out[id] = struct{}{}
	}
	return out
}

// Edge is an undirected hypercube link, stored in normalized order
// (A < B). Two processors share an edge iff their addresses differ in
// exactly one bit.
type Edge struct {
	A, B NodeID
}

// NewEdge normalizes an endpoint pair into an Edge. It panics if the
// endpoints are not hypercube neighbors — a non-adjacent "link" is a
// programming error, not a runtime condition.
func NewEdge(a, b NodeID) Edge {
	if HammingDistance(a, b) != 1 {
		panic(fmt.Sprintf("cube: %d and %d are not neighbors", a, b))
	}
	if a > b {
		a, b = b, a
	}
	return Edge{A: a, B: b}
}

// Dim returns the dimension the edge spans.
func (e Edge) Dim() int {
	return DifferingDims(e.A, e.B)[0]
}

// EdgeSet is a set of links, used for link-fault sets.
type EdgeSet map[Edge]struct{}

// NewEdgeSet builds a set from the given edges.
func NewEdgeSet(edges ...Edge) EdgeSet {
	s := make(EdgeSet, len(edges))
	for _, e := range edges {
		s[e] = struct{}{}
	}
	return s
}

// Has reports whether the (normalized) link between a and b is in the
// set.
func (s EdgeSet) Has(a, b NodeID) bool {
	_, ok := s[NewEdge(a, b)]
	return ok
}

// Add inserts the link between a and b.
func (s EdgeSet) Add(a, b NodeID) { s[NewEdge(a, b)] = struct{}{} }

// Clone returns an independent copy.
func (s EdgeSet) Clone() EdgeSet {
	out := make(EdgeSet, len(s))
	for e := range s {
		out[e] = struct{}{}
	}
	return out
}

// Sorted returns the edges ordered by (A, B) for deterministic output.
func (s EdgeSet) Sorted() []Edge {
	out := make([]Edge, 0, len(s))
	for e := range s {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Edges enumerates every link of Q_n (n * 2^(n-1) of them), ordered by
// (A, B) — used by link-fault experiments to sample dead wires.
func (h Hypercube) Edges() []Edge {
	out := make([]Edge, 0, h.n<<uint(h.n-1))
	for a := NodeID(0); a < NodeID(h.Size()); a++ {
		for d := 0; d < h.n; d++ {
			b := a ^ (1 << d)
			if a < b {
				out = append(out, Edge{A: a, B: b})
			}
		}
	}
	return out
}

// FormatAddr renders id as an n-bit binary string, most significant
// dimension first, matching the paper's u_{n-1}...u_0 notation.
func FormatAddr(id NodeID, n int) string {
	b := make([]byte, n)
	for d := 0; d < n; d++ {
		if Bit(id, n-1-d) == 1 {
			b[d] = '1'
		} else {
			b[d] = '0'
		}
	}
	return string(b)
}
