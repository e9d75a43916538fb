package bitonic

import (
	"sync"
	"testing"
	"testing/quick"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

func TestProtocolString(t *testing.T) {
	if FullBlock.String() != "full-block" || HalfExchange.String() != "half-exchange" {
		t.Error("Protocol strings wrong")
	}
	if FullBlock.tagsPerExchange() != 1 || HalfExchange.tagsPerExchange() != 2 {
		t.Error("tag budgets wrong")
	}
}

// sortBitonicRuns is sortBitonicRunsInto with a fresh destination.
func sortBitonicRuns(xs []sortutil.Key) []sortutil.Key {
	if len(xs) <= 1 {
		return xs
	}
	return sortBitonicRunsInto(make([]sortutil.Key, len(xs)), xs)
}

func TestSortBitonicRuns(t *testing.T) {
	cases := [][]sortutil.Key{
		{},
		{5},
		{1, 2, 3},
		{3, 2, 1},
		{1, 5, 9, 7, 2},    // mountain
		{9, 4, 1, 3, 8},    // valley
		{2, 2, 5, 5, 3, 1}, // mountain with plateaus
		{7, 7, 1, 1, 4},    // valley with plateaus
		{1, 1, 1},          // constant
		{5, 1},             // two elements desc
	}
	for _, c := range cases {
		orig := sortutil.Clone(c)
		got := sortBitonicRuns(sortutil.Clone(c))
		if !sortutil.IsSorted(got, sortutil.Ascending) || !sortutil.SameMultiset(got, orig) {
			t.Errorf("sortBitonicRuns(%v) = %v", orig, got)
		}
	}
}

func TestSortBitonicRunsQuick(t *testing.T) {
	// Build random two-run sequences and verify sorting.
	r := xrand.New(1)
	f := func(rawA, rawB []int16, mountain bool) bool {
		a := make([]sortutil.Key, len(rawA))
		for i, v := range rawA {
			a[i] = sortutil.Key(v)
		}
		b := make([]sortutil.Key, len(rawB))
		for i, v := range rawB {
			b[i] = sortutil.Key(v)
		}
		if mountain {
			sortutil.HeapSort(a, sortutil.Ascending)
			sortutil.HeapSort(b, sortutil.Descending)
		} else {
			sortutil.HeapSort(a, sortutil.Descending)
			sortutil.HeapSort(b, sortutil.Ascending)
		}
		xs := append(a, b...)
		orig := sortutil.Clone(xs)
		got := sortBitonicRuns(xs)
		return sortutil.IsSorted(got, sortutil.Ascending) && sortutil.SameMultiset(got, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	_ = r
}

// TestHalfExchangePairEquivalence checks one compare-exchange under both
// protocols produces identical chunks on both sides.
func TestHalfExchangePairEquivalence(t *testing.T) {
	r := xrand.New(2)
	for trial := 0; trial < 300; trial++ {
		k := 1 + r.IntN(32)
		a := workload.MustGenerate(workload.Uniform, k, r)
		b := workload.MustGenerate(workload.Uniform, k, r)
		sortutil.HeapSort(a, sortutil.Ascending)
		sortutil.HeapSort(b, sortutil.Ascending)

		results := map[Protocol][2][]sortutil.Key{}
		for _, proto := range []Protocol{FullBlock, HalfExchange} {
			m := machine.MustNew(machine.Config{Dim: 1})
			var out [2][]sortutil.Key
			_, err := m.Run([]cube.NodeID{0, 1}, func(p *machine.Proc) error {
				mine := a
				keepLow := true
				if p.ID() == 1 {
					mine = b
					keepLow = false
				}
				ctx := NewCtx(p, FullCube(1), sortutil.Clone(mine))
				ctx.Protocol = proto
				ctx.ExchangeSplit(p.ID()^1, keepLow)
				out[p.ID()] = ctx.Chunk
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			results[proto] = out
		}
		for side := 0; side < 2; side++ {
			fb, he := results[FullBlock][side], results[HalfExchange][side]
			if len(fb) != len(he) {
				t.Fatalf("trial %d side %d: lengths differ", trial, side)
			}
			for i := range fb {
				if fb[i] != he[i] {
					t.Fatalf("trial %d side %d: protocols disagree:\n full %v\n half %v\n a=%v b=%v",
						trial, side, fb, he, a, b)
				}
			}
		}
	}
}

// TestHalfExchangeSortCorrectness runs the full distributed sorts under
// the half-exchange protocol, including single-fault views.
func TestHalfExchangeSortCorrectness(t *testing.T) {
	r := xrand.New(3)
	for _, n := range []int{2, 3, 4} {
		m := machine.MustNew(machine.Config{Dim: n})
		keys := workload.MustGenerate(workload.Uniform, 7*(1<<n)-5, r)
		got, _, err := SortProto(m, FullCube(n), keys, sortutil.Ascending, HalfExchange)
		if err != nil {
			t.Fatal(err)
		}
		if !sortutil.IsSorted(got, sortutil.Ascending) || !sortutil.SameMultiset(got, keys) {
			t.Fatalf("n=%d: half-exchange fault-free sort wrong", n)
		}
		for f := cube.NodeID(0); f < cube.NodeID(1<<n); f += 3 {
			mf := machine.MustNew(machine.Config{Dim: n, Faults: cube.NewNodeSet(f)})
			got, _, err := SortProto(mf, singleFaultView(n, f), keys, sortutil.Ascending, HalfExchange)
			if err != nil {
				t.Fatal(err)
			}
			if !sortutil.IsSorted(got, sortutil.Ascending) || !sortutil.SameMultiset(got, keys) {
				t.Fatalf("n=%d fault=%d: half-exchange single-fault sort wrong", n, f)
			}
		}
	}
}

// TestProtocolTrafficProfile verifies the ablation's headline numbers:
// the half-exchange sends twice the messages and the same key volume.
func TestProtocolTrafficProfile(t *testing.T) {
	r := xrand.New(4)
	keys := workload.MustGenerate(workload.Uniform, 1024, r)
	m := machine.MustNew(machine.Config{Dim: 4})
	_, resFull, err := SortProto(m, FullCube(4), keys, sortutil.Ascending, FullBlock)
	if err != nil {
		t.Fatal(err)
	}
	_, resHalf, err := SortProto(m, FullCube(4), keys, sortutil.Ascending, HalfExchange)
	if err != nil {
		t.Fatal(err)
	}
	if resHalf.Messages != 2*resFull.Messages {
		t.Errorf("messages: half %d, full %d (want exactly 2x)", resHalf.Messages, resFull.Messages)
	}
	// Same volume: chunk size is even (1024/16 = 64), so each half-round
	// moves exactly half a chunk.
	if resHalf.KeysSent != resFull.KeysSent {
		t.Errorf("keys sent: half %d, full %d", resHalf.KeysSent, resFull.KeysSent)
	}
	// Half-exchange pays more comparisons (k/2 + k-1 vs k per exchange).
	if resHalf.Comparisons <= resFull.Comparisons {
		t.Errorf("comparisons: half %d should exceed full %d", resHalf.Comparisons, resFull.Comparisons)
	}
}

// TestHalfExchangeDuplicateHeavy pins a regression: run-boundary
// detection in sortBitonicRuns must treat equal neighbors as continuing
// a run, or duplicate-laden chunks split into more than two pieces and
// the Step 7(c) merge produces garbage.
func TestHalfExchangeDuplicateHeavy(t *testing.T) {
	r := xrand.New(6)
	m := machine.MustNew(machine.Config{Dim: 3})
	for trial := 0; trial < 20; trial++ {
		keys := make([]sortutil.Key, 64)
		for i := range keys {
			keys[i] = sortutil.Key(r.IntN(4)) // heavy duplication
		}
		got, _, err := SortProto(m, FullCube(3), keys, sortutil.Ascending, HalfExchange)
		if err != nil {
			t.Fatal(err)
		}
		if !sortutil.IsSorted(got, sortutil.Ascending) || !sortutil.SameMultiset(got, keys) {
			t.Fatalf("trial %d: duplicate-heavy half-exchange wrong", trial)
		}
	}
}

// TestHalfExchangeComparisonAccounting pins the Compute charges of one
// half-exchange against the paper's Step 7 accounting. Pairing k keys
// costs k comparisons total, split across the sides: the keep-low side
// evaluates pairs t in [h, k) and charges k-h = ceil(k/2); the keep-high
// side evaluates t in [0, h) and charges h = floor(k/2) (the paper's
// "k/2 per side", with the odd key's comparison landing on the keep-low
// side). Each side then charges k-1 for the Step 7(c) merge. The in-place
// kernel rewrite must never change these numbers — they are the cost
// model, not an implementation detail.
func TestHalfExchangeComparisonAccounting(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 17} {
		var mu sync.Mutex
		charges := map[cube.NodeID][]int{}
		m := machine.MustNew(machine.Config{Dim: 1, Trace: func(ev machine.TraceEvent) {
			if ev.Kind != machine.TraceCompute {
				return
			}
			mu.Lock()
			charges[ev.Node] = append(charges[ev.Node], ev.Keys)
			mu.Unlock()
		}})
		r := xrand.New(uint64(k))
		a := workload.MustGenerate(workload.Uniform, k, r)
		b := workload.MustGenerate(workload.Uniform, k, r)
		sortutil.HeapSort(a, sortutil.Ascending)
		sortutil.HeapSort(b, sortutil.Ascending)
		_, err := m.Run([]cube.NodeID{0, 1}, func(p *machine.Proc) error {
			mine, keepLow := a, true
			if p.ID() == 1 {
				mine, keepLow = b, false
			}
			ctx := NewCtx(p, FullCube(1), sortutil.Clone(mine))
			ctx.Protocol = HalfExchange
			ctx.ExchangeSplit(p.ID()^1, keepLow)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		h := k / 2
		want := map[cube.NodeID][]int{
			0: {k - h, k - 1}, // keep-low: ceil(k/2) pair compares + merge
			1: {h, k - 1},     // keep-high: floor(k/2) pair compares + merge
		}
		for node, w := range want {
			got := charges[node]
			if len(got) != len(w) {
				t.Fatalf("k=%d node %d: %d Compute calls %v, want %v", k, node, len(got), got, w)
			}
			for i := range w {
				if got[i] != w[i] {
					t.Errorf("k=%d node %d: charge %d = %d, want %d", k, node, i, got[i], w[i])
				}
			}
		}
		// Cross-check the paper's totals: k pair comparisons across both
		// sides plus 2(k-1) merge comparisons.
		total := 0
		for _, cs := range charges {
			for _, c := range cs {
				total += c
			}
		}
		if wantTotal := k + 2*(k-1); total != wantTotal {
			t.Errorf("k=%d: total comparisons %d, want %d", k, total, wantTotal)
		}
	}
}

func TestHalfExchangeOddChunks(t *testing.T) {
	// Odd chunk sizes exercise the asymmetric h = k/2 split.
	r := xrand.New(5)
	m := machine.MustNew(machine.Config{Dim: 3})
	for _, mKeys := range []int{8, 24, 40, 56} { // k = 1, 3, 5, 7
		keys := workload.MustGenerate(workload.Uniform, mKeys, r)
		got, _, err := SortProto(m, FullCube(3), keys, sortutil.Ascending, HalfExchange)
		if err != nil {
			t.Fatal(err)
		}
		if !sortutil.IsSorted(got, sortutil.Ascending) || !sortutil.SameMultiset(got, keys) {
			t.Fatalf("M=%d: odd-chunk half-exchange wrong", mKeys)
		}
	}
}
