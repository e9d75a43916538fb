package sortutil

import (
	"sort"
	"testing"
	"testing/quick"

	"hypersort/internal/xrand"
)

func randomKeys(r *xrand.RNG, n int) []Key {
	xs := make([]Key, n)
	for i := range xs {
		xs[i] = Key(r.IntN(1000) - 500)
	}
	return xs
}

func TestDirectionBasics(t *testing.T) {
	if Ascending.String() != "ascending" || Descending.String() != "descending" {
		t.Error("String wrong")
	}
	if Ascending.Reverse() != Descending || Descending.Reverse() != Ascending {
		t.Error("Reverse wrong")
	}
	if !Ascending.InOrder(1, 2) || Ascending.InOrder(2, 1) || !Ascending.InOrder(2, 2) {
		t.Error("InOrder ascending wrong")
	}
	if !Descending.InOrder(2, 1) || Descending.InOrder(1, 2) {
		t.Error("InOrder descending wrong")
	}
}

func TestHeapSortMatchesStdlib(t *testing.T) {
	r := xrand.New(1)
	for trial := 0; trial < 300; trial++ {
		n := r.IntN(128)
		xs := randomKeys(r, n)
		want := Clone(xs)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := Clone(xs)
		HeapSort(got, Ascending)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: HeapSort asc = %v, want %v (input %v)", trial, got, want, xs)
			}
		}
		gotD := Clone(xs)
		HeapSort(gotD, Descending)
		for i := range want {
			if gotD[i] != want[len(want)-1-i] {
				t.Fatalf("trial %d: HeapSort desc = %v", trial, gotD)
			}
		}
	}
}

func TestHeapSortEdgeCases(t *testing.T) {
	HeapSort(nil, Ascending) // must not panic
	one := []Key{42}
	HeapSort(one, Descending)
	if one[0] != 42 {
		t.Error("singleton changed")
	}
	dups := []Key{3, 3, 3, 3}
	HeapSort(dups, Ascending)
	if !IsSorted(dups, Ascending) {
		t.Error("duplicates broke heapsort")
	}
}

func TestHeapSortQuick(t *testing.T) {
	f := func(raw []int16) bool {
		xs := make([]Key, len(raw))
		for i, v := range raw {
			xs[i] = Key(v)
		}
		orig := Clone(xs)
		HeapSort(xs, Ascending)
		return IsSorted(xs, Ascending) && SameMultiset(xs, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]Key{1, 2, 2, 3}, Ascending) || IsSorted([]Key{2, 1}, Ascending) {
		t.Error("ascending check wrong")
	}
	if !IsSorted([]Key{3, 2, 2, 1}, Descending) || IsSorted([]Key{1, 2}, Descending) {
		t.Error("descending check wrong")
	}
	if !IsSorted(nil, Ascending) || !IsSorted([]Key{5}, Descending) {
		t.Error("trivial sequences must count as sorted")
	}
}

// isBitonic reports whether xs is a bitonic sequence: a cyclic rotation of
// a sequence that first ascends then descends. Every sequence of length
// <= 2 is bitonic.
func isBitonic(xs []Key) bool {
	n := len(xs)
	if n <= 2 {
		return true
	}
	// Count the number of direction inversions around the cycle; bitonic
	// sequences have at most two sign changes cyclically.
	changes := 0
	prevSign := 0
	for i := 0; i < n; i++ {
		a, b := xs[i], xs[(i+1)%n]
		var sign int
		switch {
		case a < b:
			sign = 1
		case a > b:
			sign = -1
		default:
			continue // equal neighbors never add a change
		}
		if prevSign != 0 && sign != prevSign {
			changes++
		}
		prevSign = sign
	}
	return changes <= 2
}

func TestIsBitonic(t *testing.T) {
	cases := []struct {
		xs   []Key
		want bool
	}{
		{nil, true},
		{[]Key{1}, true},
		{[]Key{2, 1}, true},
		{[]Key{1, 3, 7, 4, 2}, true},  // up then down
		{[]Key{7, 3, 1, 4, 6}, true},  // down then up (cyclic rotation)
		{[]Key{1, 2, 3, 4}, true},     // monotone is bitonic
		{[]Key{1, 3, 2, 4}, false},    // two local maxima
		{[]Key{5, 5, 5}, true},        // constant
		{[]Key{1, 9, 1, 9}, false},    // zigzag
		{[]Key{2, 4, 4, 3, 1}, true},  // plateau at peak
		{[]Key{3, 1, 2, 1, 3}, false}, // W shape wraps to > 2 changes
	}
	for _, c := range cases {
		if got := isBitonic(c.xs); got != c.want {
			t.Errorf("isBitonic(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestConcatenationOfOppositeSortsIsBitonic(t *testing.T) {
	r := xrand.New(2)
	for trial := 0; trial < 100; trial++ {
		a := randomKeys(r, r.IntN(16))
		b := randomKeys(r, r.IntN(16))
		HeapSort(a, Ascending)
		HeapSort(b, Descending)
		if !isBitonic(append(Clone(a), b...)) {
			t.Fatalf("asc+desc concat not bitonic: %v | %v", a, b)
		}
	}
}

func TestMerge(t *testing.T) {
	a := []Key{1, 4, 6}
	b := []Key{2, 3, 7}
	got := MergeInto(nil, a, b, Ascending)
	want := []Key{1, 2, 3, 4, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Merge = %v", got)
		}
	}
	gd := MergeInto(nil, []Key{6, 4, 1}, []Key{7, 3, 2}, Descending)
	if !IsSorted(gd, Descending) || len(gd) != 6 {
		t.Fatalf("descending Merge = %v", gd)
	}
	if got := MergeInto(nil, nil, b, Ascending); len(got) != 3 {
		t.Error("merge with empty side wrong")
	}
}

// TestMergeIntoMatchesMerge checks MergeInto against a reference merge:
// the sorted concatenation of both runs.
func TestMergeIntoMatchesMerge(t *testing.T) {
	r := xrand.New(3)
	for trial := 0; trial < 100; trial++ {
		a := randomKeys(r, r.IntN(32))
		b := randomKeys(r, r.IntN(32))
		HeapSort(a, Ascending)
		HeapSort(b, Ascending)
		want := append(Clone(a), b...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		dst := make([]Key, 0, len(a)+len(b))
		got := MergeInto(dst, a, b, Ascending)
		if len(got) != len(want) {
			t.Fatal("length mismatch")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MergeInto = %v, want %v", got, want)
			}
		}
	}
}

func TestCompareSplit(t *testing.T) {
	mine := []Key{1, 5, 9, 12}
	theirs := []Key{2, 3, 10, 11}
	low := CompareSplit(mine, theirs, true)
	wantLow := []Key{1, 2, 3, 5}
	for i := range wantLow {
		if low[i] != wantLow[i] {
			t.Fatalf("keepLow = %v", low)
		}
	}
	high := CompareSplit(mine, theirs, false)
	wantHigh := []Key{9, 10, 11, 12}
	for i := range wantHigh {
		if high[i] != wantHigh[i] {
			t.Fatalf("keepHigh = %v", high)
		}
	}
}

func TestCompareSplitPairInvariant(t *testing.T) {
	// keepLow of (a,b) plus keepHigh of (b,a) must partition the union, with
	// every low element <= every high element.
	r := xrand.New(4)
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.IntN(24)
		a, b := randomKeys(r, k), randomKeys(r, k)
		HeapSort(a, Ascending)
		HeapSort(b, Ascending)
		low := CompareSplit(a, b, true)
		high := CompareSplit(b, a, false)
		union := append(Clone(a), b...)
		if !SameMultiset(append(Clone(low), high...), union) {
			t.Fatalf("compare-split lost elements: low %v high %v from %v %v", low, high, a, b)
		}
		if !IsSorted(low, Ascending) || !IsSorted(high, Ascending) {
			t.Fatal("compare-split results not sorted")
		}
		if len(low) > 0 && len(high) > 0 && low[len(low)-1] > high[0] {
			t.Fatalf("low max %d exceeds high min %d", low[len(low)-1], high[0])
		}
	}
}

func TestStripAndCount(t *testing.T) {
	xs := []Key{1, 2, Inf, Inf}
	if got := StripInf(xs); len(got) != 2 {
		t.Errorf("StripInf = %v", got)
	}
	if CountReal(xs) != 2 {
		t.Error("CountReal wrong")
	}
	if got := StripInf([]Key{Inf, Inf}); len(got) != 0 {
		t.Errorf("all-dummy StripInf = %v", got)
	}
}

func TestReverse(t *testing.T) {
	xs := []Key{1, 2, 3, 4, 5}
	Reverse(xs)
	for i, want := range []Key{5, 4, 3, 2, 1} {
		if xs[i] != want {
			t.Fatalf("Reverse = %v", xs)
		}
	}
	empty := []Key{}
	Reverse(empty) // must not panic
}

func TestSameMultiset(t *testing.T) {
	if !SameMultiset([]Key{1, 2, 2}, []Key{2, 1, 2}) {
		t.Error("equal multisets reported different")
	}
	if SameMultiset([]Key{1, 2}, []Key{1, 2, 2}) {
		t.Error("length mismatch accepted")
	}
	if SameMultiset([]Key{1, 1, 2}, []Key{1, 2, 2}) {
		t.Error("multiplicity mismatch accepted")
	}
}
