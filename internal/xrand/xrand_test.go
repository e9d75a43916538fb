package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds diverged")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s := r.Split()
	// The split stream must differ from the parent's continuation.
	diverged := false
	for i := 0; i < 10; i++ {
		if r.Uint64() != s.Uint64() {
			diverged = true
		}
	}
	if !diverged {
		t.Error("split stream tracks parent stream")
	}
}

func TestIntNRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.IntN(n)
			if v < 0 || v >= n {
				t.Fatalf("IntN(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestIntNUniformity(t *testing.T) {
	// Chi-squared-lite: each of 8 buckets within 20% of expectation.
	r := New(99)
	const buckets, trials = 8, 80000
	counts := make([]int, buckets)
	for i := 0; i < trials; i++ {
		counts[r.IntN(buckets)]++
	}
	want := float64(trials) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.2*want {
			t.Errorf("bucket %d count %d far from %v", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	f := func(raw uint8) bool {
		n := int(raw)%64 + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(13)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.IntN(64)
		k := r.IntN(n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			t.Fatalf("Sample(%d,%d) returned %d values", n, k, len(s))
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Sample(%d,%d) invalid value %d in %v", n, k, v, s)
			}
			seen[v] = true
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample(3,4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestSampleCoversAllValues(t *testing.T) {
	// Over many draws of Sample(8, 4), every value 0..7 must appear.
	r := New(17)
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		for _, v := range r.Sample(8, 4) {
			seen[v] = true
		}
	}
	for v := 0; v < 8; v++ {
		if !seen[v] {
			t.Errorf("value %d never sampled", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("mean %v far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("variance %v far from 1", variance)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	if r.Uint64() == r.Uint64() {
		t.Error("zero-value RNG repeats itself")
	}
}

func TestUint32AndInt63(t *testing.T) {
	r := New(55)
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint32()] = true
		if v := r.Int63(); v < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
	if len(seen) < 95 {
		t.Errorf("Uint32 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestIntNLargeBound(t *testing.T) {
	// A bound just below 2^62 exercises Lemire's rejection path.
	r := New(56)
	n := 1 << 62
	for i := 0; i < 50; i++ {
		v := r.IntN(n)
		if v < 0 || v >= n {
			t.Fatalf("IntN out of range: %d", v)
		}
	}
}
