package workload

import (
	"slices"
	"testing"

	"hypersort/internal/sortutil"
	"hypersort/internal/xrand"
)

func TestGenerateAllKindsCountAndDeterminism(t *testing.T) {
	for _, kind := range Kinds() {
		a, err := Generate(kind, 500, xrand.New(9))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(a) != 500 {
			t.Fatalf("%s: got %d keys", kind, len(a))
		}
		b := MustGenerate(kind, 500, xrand.New(9))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: not deterministic at %d", kind, i)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("nope", 10, xrand.New(1)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Generate(Uniform, -1, xrand.New(1)); err == nil {
		t.Error("negative count accepted")
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate did not panic")
		}
	}()
	MustGenerate("nope", 1, xrand.New(1))
}

func TestSortedKindsAreSorted(t *testing.T) {
	r := xrand.New(2)
	s := MustGenerate(Sorted, 300, r)
	if !sortutil.IsSorted(s, sortutil.Ascending) {
		t.Error("Sorted kind not ascending")
	}
	rev := MustGenerate(ReverseOrder, 300, r)
	if !sortutil.IsSorted(rev, sortutil.Descending) {
		t.Error("ReverseOrder kind not descending")
	}
}

func TestFewDistinctHasFewValues(t *testing.T) {
	xs := MustGenerate(FewDistinct, 1000, xrand.New(3))
	seen := map[sortutil.Key]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) > 16 {
		t.Errorf("FewDistinct produced %d distinct values", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	xs := MustGenerate(ZipfLite, 5000, xrand.New(4))
	zeros := 0
	for _, x := range xs {
		if x == 0 {
			zeros++
		}
	}
	// 1/H(64) ~ 21% of mass on key 0; accept a broad band.
	if zeros < 500 || zeros > 2000 {
		t.Errorf("ZipfLite zero count %d outside skew band", zeros)
	}
}

func TestDistributeEvenAndRagged(t *testing.T) {
	keys := MustGenerate(Uniform, 10, xrand.New(5))
	shares, err := Distribute(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 4 {
		t.Fatalf("share count = %d", len(shares))
	}
	q := len(shares[0])
	if q != 3 {
		t.Fatalf("share size = %d, want ceil(10/4)=3", q)
	}
	total, dummies := 0, 0
	for _, s := range shares {
		if len(s) != q {
			t.Fatal("uneven share sizes")
		}
		for _, k := range s {
			total++
			if k == sortutil.Inf {
				dummies++
			}
		}
	}
	if total != 12 || dummies != 2 {
		t.Errorf("total %d dummies %d", total, dummies)
	}
	// Real keys must survive the round trip.
	gathered := sortutil.StripInfAll(slices.Concat(shares...))
	if !sortutil.SameMultiset(gathered, keys) {
		t.Error("Distribute lost keys")
	}
}

func TestDistributeErrorsAndEmpty(t *testing.T) {
	if _, err := Distribute(nil, 0); err == nil {
		t.Error("p=0 accepted")
	}
	shares, err := Distribute(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shares {
		if len(s) != 1 || s[0] != sortutil.Inf {
			t.Errorf("empty distribute share = %v", s)
		}
	}
}

// TestGatherOrder checks that gathering Distribute's shares back in
// processor order yields the input order, then the Inf padding.
func TestGatherOrder(t *testing.T) {
	shares, err := Distribute([]sortutil.Key{5, 1, 4, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := slices.Concat(shares...)
	want := []sortutil.Key{5, 1, 4, 2, 3, sortutil.Inf}
	if !slices.Equal(got, want) {
		t.Fatalf("gathered shares = %v, want %v", got, want)
	}
}
