package engine

import (
	"sort"
	"sync"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

func sortedRef(keys []sortutil.Key) []sortutil.Key {
	out := sortutil.Clone(keys)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func keysEqual(a, b []sortutil.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDoSortMatchesReference(t *testing.T) {
	e := New(2, 2)
	keys := workload.MustGenerate(workload.Uniform, 500, xrand.New(1))
	cfg := Config{Dim: 4, Faults: []cube.NodeID{3, 9}}
	res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !keysEqual(res.Keys, sortedRef(keys)) {
		t.Fatalf("engine sort diverges from reference")
	}
	if res.Res.Makespan <= 0 {
		t.Fatalf("no simulated time recorded")
	}
}

func TestPlanCacheHitsAndSingleSearch(t *testing.T) {
	e := New(1, 4)
	cfg := Config{Dim: 5, Faults: []cube.NodeID{3, 17}}
	keys := workload.MustGenerate(workload.Uniform, 200, xrand.New(2))
	for i := 0; i < 5; i++ {
		if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// Same configuration written differently: permuted fault order must
	// hit the same cache entry.
	perm := Config{Dim: 5, Faults: []cube.NodeID{17, 3}}
	if res := e.Do(Request{Config: perm, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	}
	m := e.Metrics()
	if m.PlanMisses != 1 {
		t.Fatalf("plan misses = %d, want 1 (one search per configuration)", m.PlanMisses)
	}
	if m.PlanHits != 5 {
		t.Fatalf("plan hits = %d, want 5", m.PlanHits)
	}
	if m.Requests != 6 {
		t.Fatalf("requests = %d, want 6", m.Requests)
	}
}

func TestPoolBoundAndCloneFastPath(t *testing.T) {
	const bound = 3
	e := New(bound, 16)
	cfg := Config{Dim: 4, Faults: []cube.NodeID{5}}
	keys := workload.MustGenerate(workload.Uniform, 300, xrand.New(3))
	want := sortedRef(keys)

	var wg sync.WaitGroup
	errs := make([]error, 24)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
			if res.Err != nil {
				errs[i] = res.Err
				return
			}
			if !keysEqual(res.Keys, want) {
				t.Errorf("request %d: wrong result", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.MachinesBuilt != 1 {
		t.Fatalf("machines built = %d, want 1 template", m.MachinesBuilt)
	}
	if got := m.MachinesBuilt + m.MachinesCloned; got > bound {
		t.Fatalf("pool created %d machines, bound is %d", got, bound)
	}
}

func TestNegativePlanResultCached(t *testing.T) {
	e := New(1, 1)
	// Three faults on Q_2: a single cut leaves some 2-node subcube with
	// two faults (pigeonhole), and the search caps at n-1 cuts, so no
	// single-fault partition exists.
	cfg := Config{Dim: 2, Faults: []cube.NodeID{0, 1, 2}}
	r1 := e.Do(Request{Config: cfg, Op: OpSort, Keys: []sortutil.Key{1}})
	if r1.Err == nil {
		t.Fatal("expected plan failure for inseparable fault set")
	}
	r2 := e.Do(Request{Config: cfg, Op: OpSort, Keys: []sortutil.Key{1}})
	if r2.Err == nil {
		t.Fatal("expected cached plan failure")
	}
	m := e.Metrics()
	if m.PlanMisses != 1 || m.PlanHits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1 and 1 (failure cached)", m.PlanMisses, m.PlanHits)
	}
}

func TestBatchErrorIsolation(t *testing.T) {
	e := New(2, 4)
	good := workload.MustGenerate(workload.Uniform, 100, xrand.New(4))
	reqs := []Request{
		{Config: Config{Dim: 3, Faults: []cube.NodeID{1}}, Op: OpSort, Keys: good},
		{Config: Config{Dim: 3, Faults: []cube.NodeID{99}}, Op: OpSort, Keys: good},      // fault outside Q_3
		{Config: Config{Dim: 3}, Op: OpKthSmallest, Keys: good, K: 0},                    // rank out of range
		{Config: Config{Dim: -1}, Op: OpSort, Keys: good},                                // bad dimension
		{Config: Config{Dim: 2, Faults: []cube.NodeID{0, 1, 2}}, Op: OpSort, Keys: good}, // inseparable
		{Config: Config{Dim: 3}, Op: OpTopK, Keys: good, K: 5},
	}
	results := e.Batch(reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for _, i := range []int{1, 2, 3, 4} {
		if results[i].Err == nil {
			t.Fatalf("request %d should have failed", i)
		}
	}
	if results[0].Err != nil {
		t.Fatalf("valid sort failed alongside bad requests: %v", results[0].Err)
	}
	if !keysEqual(results[0].Keys, sortedRef(good)) {
		t.Fatalf("batch sort result wrong")
	}
	if results[5].Err != nil {
		t.Fatalf("valid top-k failed: %v", results[5].Err)
	}
	ref := sortedRef(good)
	if !keysEqual(results[5].Keys, ref[len(ref)-5:]) {
		t.Fatalf("batch top-k result wrong")
	}
}

// TestUnknownEnumsRejected pins that a fault model or routing policy
// outside the defined values fails validation in every mode, before it
// reaches the plan cache, a machine pool or the direct substrate.
func TestUnknownEnumsRejected(t *testing.T) {
	for _, mode := range []Mode{ModeSim, ModeDirect} {
		e := New(1, 1)
		e.SetMode(mode)
		keys := workload.MustGenerate(workload.Uniform, 64, xrand.New(9))
		for _, tc := range []struct {
			cfg  Config
			want string
		}{
			{Config{Dim: 3, Model: 7}, "engine: unknown fault model 7"},
			{Config{Dim: 3, Model: -1}, "engine: unknown fault model -1"},
			{Config{Dim: 3, Routing: 9}, "engine: unknown routing policy 9"},
		} {
			res := e.Do(Request{Config: tc.cfg, Op: OpSort, Keys: keys})
			if res.Err == nil || res.Err.Error() != tc.want {
				t.Errorf("%v, %+v: err %v, want %q", mode, tc.cfg, res.Err, tc.want)
			}
			if _, err := e.Plan(tc.cfg); err == nil || err.Error() != tc.want {
				t.Errorf("%v, Plan(%+v): err %v, want %q", mode, tc.cfg, err, tc.want)
			}
		}
		if m := e.Metrics(); m.PlanHits+m.PlanMisses != 0 || m.MachinesBuilt != 0 || m.DirectRequests != 0 {
			t.Errorf("%v: rejected configurations reached the engine: %+v", mode, m)
		}
	}
}

func TestOpsThroughPool(t *testing.T) {
	e := New(2, 4)
	cfg := Config{Dim: 4, Faults: []cube.NodeID{7}}
	keys := workload.MustGenerate(workload.Uniform, 257, xrand.New(5))
	ref := sortedRef(keys)

	if res := e.Do(Request{Config: cfg, Op: OpKthSmallest, Keys: keys, K: 10}); res.Err != nil || res.Value != ref[9] {
		t.Fatalf("kth-smallest = %v err=%v, want %v", res.Value, res.Err, ref[9])
	}
	if res := e.Do(Request{Config: cfg, Op: OpMedian, Keys: keys}); res.Err != nil || res.Value != ref[(len(ref)-1)/2] {
		t.Fatalf("median = %v err=%v, want %v", res.Value, res.Err, ref[(len(ref)-1)/2])
	}
	if res := e.Do(Request{Config: cfg, Op: OpTopK, Keys: keys, K: 3}); res.Err != nil || !keysEqual(res.Keys, ref[len(ref)-3:]) {
		t.Fatalf("top-k wrong: %v err=%v", res.Keys, res.Err)
	}
	if res := e.Do(Request{Config: cfg, Op: Op(42), Keys: keys}); res.Err == nil {
		t.Fatal("unknown op must fail")
	}
}

func TestDifferentCostModelsGetDifferentPools(t *testing.T) {
	e := New(1, 2)
	keys := workload.MustGenerate(workload.Uniform, 64, xrand.New(6))
	paper := Config{Dim: 3, Cost: machine.PaperCostModel()}
	ncube := Config{Dim: 3, Cost: machine.DefaultCostModel()}
	r1 := e.Do(Request{Config: paper, Op: OpSort, Keys: keys})
	r2 := e.Do(Request{Config: ncube, Op: OpSort, Keys: keys})
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r1.Res.Makespan == r2.Res.Makespan {
		t.Fatal("distinct cost models produced identical makespans — pools likely shared")
	}
	if m := e.Metrics(); m.MachinesBuilt != 2 {
		t.Fatalf("machines built = %d, want 2 (one template per cost model)", m.MachinesBuilt)
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	e := New(1, 1)
	if res := e.Do(Request{Config: Config{Dim: 0}, Op: OpSort, Keys: nil}); res.Err != nil || len(res.Keys) != 0 {
		t.Fatalf("empty sort on Q_0: keys=%v err=%v", res.Keys, res.Err)
	}
	one := []sortutil.Key{42}
	if res := e.Do(Request{Config: Config{Dim: 1}, Op: OpSort, Keys: one}); res.Err != nil || !keysEqual(res.Keys, one) {
		t.Fatalf("single-key sort: keys=%v err=%v", res.Keys, res.Err)
	}
}
