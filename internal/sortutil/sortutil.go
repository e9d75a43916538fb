// Package sortutil implements the sequential sorting machinery the
// fault-tolerant hypercube sort is built from: heapsort (the paper's
// Step 3 local sort), the two-way merge, and the compare-split operation
// each processor pair performs during a distributed bitonic stage.
//
// Keys are int64 with a reserved +infinity used as the paper's dummy key:
// when M elements do not divide evenly over the working processors, the
// short processors are padded with Inf so every processor holds the same
// count, and dummies sort to the top of the global order.
package sortutil

import (
	"math"
	"slices"
)

// Key is one sortable element. The paper sorts abstract keys; int64 covers
// the experiments and keeps compare-split allocation-free.
type Key int64

// Inf is the dummy key (the paper's infinity) used to pad uneven
// distributions. It must compare greater than every real key.
const Inf Key = math.MaxInt64

// NegInf is the symmetric lower sentinel, handy for descending padding in
// tests.
const NegInf Key = math.MinInt64

// Direction selects a sort order. The paper alternates directions by the
// parity of a processor's reindexed address.
type Direction bool

const (
	// Ascending sorts smallest-first.
	Ascending Direction = true
	// Descending sorts largest-first.
	Descending Direction = false
)

// String implements fmt.Stringer for debug output.
func (d Direction) String() string {
	if d == Ascending {
		return "ascending"
	}
	return "descending"
}

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction { return !d }

// InOrder reports whether a may precede b under direction d.
func (d Direction) InOrder(a, b Key) bool {
	if d == Ascending {
		return a <= b
	}
	return a >= b
}

// HeapSort sorts xs in place in the given direction using a binary
// max-heap (min-heap for descending). The paper's Step 3 explicitly uses
// heapsort for the initial local sort; its worst-case cost
// ((M/N' - 1) log(M/N') + 1) comparisons is the first term of the cost
// model, so the implementation mirrors the textbook algorithm rather than
// delegating to sort.Slice.
func HeapSort(xs []Key, d Direction) {
	n := len(xs)
	if n < 2 {
		return
	}
	// Build phase: sift down from the last internal node.
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(xs, i, n, d)
	}
	// Extraction phase: repeatedly move the extreme element to the end.
	for end := n - 1; end > 0; end-- {
		xs[0], xs[end] = xs[end], xs[0]
		siftDown(xs, 0, end, d)
	}
}

// siftDown restores the heap property for the subtree rooted at i within
// xs[:end]. For Ascending the heap is a max-heap (so extraction fills the
// tail with maxima); for Descending a min-heap.
func siftDown(xs []Key, i, end int, d Direction) {
	for {
		child := 2*i + 1
		if child >= end {
			return
		}
		if right := child + 1; right < end && dominates(xs[right], xs[child], d) {
			child = right
		}
		if !dominates(xs[child], xs[i], d) {
			return
		}
		xs[i], xs[child] = xs[child], xs[i]
		i = child
	}
}

// dominates reports whether a should sit above b in the heap for the
// requested final direction.
func dominates(a, b Key, d Direction) bool {
	if d == Ascending {
		return a > b
	}
	return a < b
}

// SortHost sorts xs in place in the given direction at host speed using
// the standard library's pattern-defeating quicksort. It produces exactly
// the same slice as HeapSort (keys are totally ordered values, so the
// sorted permutation is unique), only faster on the host. Simulation
// kernels call this for the *execution* of a local sort while still
// charging the paper's analytic heapsort comparison count to the virtual
// clock — host speed and simulated cost are independent axes, and the
// cost model follows the paper's Step 3 heapsort regardless of how the
// host happens to produce the sorted chunk (see bitonic.LocalSort and
// the conformance test pinning the equivalence).
func SortHost(xs []Key, d Direction) {
	slices.Sort(xs)
	if d == Descending {
		Reverse(xs)
	}
}

// IsSorted reports whether xs is ordered in direction d (non-strictly).
func IsSorted(xs []Key, d Direction) bool {
	for i := 1; i < len(xs); i++ {
		if !d.InOrder(xs[i-1], xs[i]) {
			return false
		}
	}
	return true
}

// Reverse reverses xs in place.
func Reverse(xs []Key) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// MergeInto merges two slices, each already sorted in direction d, into
// dst (which should have capacity len(a)+len(b)) and returns the filled
// dst: the paper's Step 7(c) merge of the kept half with the received
// half. Kernels reuse dst to avoid allocating inside timing loops.
func MergeInto(dst, a, b []Key, d Direction) []Key {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if d.InOrder(a[i], b[j]) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// CompareSplit performs the distributed compare-exchange between a pair of
// processors each holding a sorted run: the pair's 2k elements are
// logically merged and the caller keeps either the k smallest (keepLow)
// or the k largest, returned sorted ascending. mine and theirs must each
// be sorted ascending; the result is freshly allocated.
//
// In the machine kernels the halves travel as messages per the paper's
// Step 7 protocol; this function is the arithmetic both endpoints agree
// on.
func CompareSplit(mine, theirs []Key, keepLow bool) []Key {
	return CompareSplitInto(make([]Key, 0, len(mine)), mine, theirs, keepLow)
}

// CompareSplitInto is CompareSplit writing into dst (which must have
// capacity len(mine) and must not alias mine or theirs); it returns the
// filled dst. The machine kernels call it with a per-processor scratch
// buffer so a compare-exchange step allocates nothing.
func CompareSplitInto(dst, mine, theirs []Key, keepLow bool) []Key {
	k := len(mine)
	out := dst[:0]
	// Already-separated fast paths: when the runs do not interleave the
	// result is a contiguous copy. Conditions are exact about ties (equal
	// keys keep mine, as the merge loops below do), so the output is
	// bit-identical to the general path.
	if k > 0 {
		if keepLow {
			if len(theirs) == 0 || mine[k-1] <= theirs[0] {
				return append(out, mine...)
			}
			if len(theirs) >= k && theirs[k-1] < mine[0] {
				return append(out, theirs[:k]...)
			}
		} else {
			if len(theirs) == 0 || mine[0] >= theirs[len(theirs)-1] {
				return append(out, mine...)
			}
			if len(theirs) >= k && theirs[len(theirs)-k] > mine[k-1] {
				return append(out, theirs[len(theirs)-k:]...)
			}
		}
	}
	// Equal-length runs (every machine kernel's case): tight indexed
	// loops. i+j picks so far stays < k, so both indices are always in
	// bounds without per-element limit checks.
	if len(theirs) == k {
		out = dst[:k]
		if keepLow {
			i, j := 0, 0
			for x := 0; x < k; x++ {
				if a, b := mine[i], theirs[j]; a <= b {
					out[x] = a
					i++
				} else {
					out[x] = b
					j++
				}
			}
			return out
		}
		// Keep the k largest: fill from the top walking the tails, which
		// lands the result ascending with no reverse pass.
		i, j := k-1, k-1
		for x := k - 1; x >= 0; x-- {
			if a, b := mine[i], theirs[j]; a >= b {
				out[x] = a
				i--
			} else {
				out[x] = b
				j--
			}
		}
		return out
	}
	if keepLow {
		i, j := 0, 0
		for len(out) < k {
			if j >= len(theirs) || (i < len(mine) && mine[i] <= theirs[j]) {
				out = append(out, mine[i])
				i++
			} else {
				out = append(out, theirs[j])
				j++
			}
		}
		return out
	}
	// Keep the k largest: walk from the tails.
	i, j := len(mine)-1, len(theirs)-1
	for len(out) < k {
		if j < 0 || (i >= 0 && mine[i] >= theirs[j]) {
			out = append(out, mine[i])
			i--
		} else {
			out = append(out, theirs[j])
			j--
		}
	}
	Reverse(out)
	return out
}

// StripInf removes trailing Inf dummies from an ascending-sorted slice.
func StripInf(xs []Key) []Key {
	end := len(xs)
	for end > 0 && xs[end-1] == Inf {
		end--
	}
	return xs[:end]
}

// StripInfAll returns xs with every Inf dummy removed, regardless of
// position (StripInf is the cheap variant for ascending-sorted slices).
func StripInfAll(xs []Key) []Key {
	out := make([]Key, 0, len(xs))
	for _, x := range xs {
		if x != Inf {
			out = append(out, x)
		}
	}
	return out
}

// CountReal returns the number of non-dummy keys in xs.
func CountReal(xs []Key) int {
	n := 0
	for _, x := range xs {
		if x != Inf {
			n++
		}
	}
	return n
}

// Clone returns an independent copy of xs.
func Clone(xs []Key) []Key { return append([]Key(nil), xs...) }

// Multiset builds an occurrence count of xs; tests use it to assert a
// sort permuted rather than invented data.
func Multiset(xs []Key) map[Key]int {
	m := make(map[Key]int, len(xs))
	for _, x := range xs {
		m[x]++
	}
	return m
}

// SameMultiset reports whether a and b contain the same keys with the
// same multiplicities.
func SameMultiset(a, b []Key) bool {
	if len(a) != len(b) {
		return false
	}
	m := Multiset(a)
	for _, x := range b {
		m[x]--
		if m[x] < 0 {
			return false
		}
	}
	return true
}
