package hypersort

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"hypersort/internal/engine"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

func genKeys(n int, seed uint64) []Key {
	return workload.MustGenerate(workload.Uniform, n, xrand.New(seed))
}

func TestSortOneCall(t *testing.T) {
	keys := genKeys(500, 1)
	sorted, stats, err := Sort(Config{Dim: 5, Faults: []NodeID{3, 17, 24}}, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != len(keys) {
		t.Fatalf("length %d != %d", len(sorted), len(keys))
	}
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		t.Fatal("not sorted")
	}
	if stats.Makespan <= 0 || stats.Comparisons <= 0 || stats.Messages <= 0 {
		t.Errorf("implausible stats: %+v", stats)
	}
}

func TestSorterReuse(t *testing.T) {
	s, err := New(Config{Dim: 4, Faults: []NodeID{7}})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		keys := genKeys(200+17*trial, uint64(trial))
		sorted, _, err := s.Sort(keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(sorted) != len(keys) {
			t.Fatal("length mismatch")
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: -1}); err == nil {
		t.Error("negative dim accepted")
	}
	if _, err := New(Config{Dim: 2, Faults: []NodeID{9}}); err == nil {
		t.Error("fault outside cube accepted")
	}
	if _, err := New(Config{Dim: 1, Faults: []NodeID{0, 1}}); err == nil {
		t.Error("fully faulty cube accepted")
	}
}

func TestPartitionInfoPaperExample(t *testing.T) {
	s, err := New(Config{Dim: 5, Faults: []NodeID{3, 5, 16, 24}})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Partition()
	if p.Mincut != 3 || len(p.CuttingSet) != 5 {
		t.Errorf("mincut=%d |Ψ|=%d", p.Mincut, len(p.CuttingSet))
	}
	if len(p.Chosen) != 3 || p.Chosen[0] != 0 || p.Chosen[1] != 1 || p.Chosen[2] != 3 {
		t.Errorf("chosen = %v", p.Chosen)
	}
	if p.ExtraComm != 3 || p.Working != 24 {
		t.Errorf("extra=%d working=%d", p.ExtraComm, p.Working)
	}
	want := []NodeID{18, 25, 26, 27}
	if len(p.Dangling) != 4 {
		t.Fatalf("dangling = %v", p.Dangling)
	}
	for i := range want {
		if p.Dangling[i] != want[i] {
			t.Fatalf("dangling = %v", p.Dangling)
		}
	}
	if p.Utilization <= 0.85 || p.Utilization > 1 {
		t.Errorf("utilization = %v", p.Utilization)
	}
	// Mutating the returned copies must not affect the sorter.
	p.Chosen[0] = 99
	if s.Partition().Chosen[0] == 99 {
		t.Error("Partition returned aliased state")
	}
}

func TestEstimatedTime(t *testing.T) {
	s, err := New(Config{Dim: 5, Faults: []NodeID{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.EstimatedTime(1000)
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.EstimatedTime(100000)
	if err != nil {
		t.Fatal(err)
	}
	if small <= 0 || large <= small {
		t.Errorf("estimates %d, %d", small, large)
	}
	if _, err := s.EstimatedTime(-1); err == nil {
		t.Error("negative M accepted")
	}
}

func TestDiagnoseThenSort(t *testing.T) {
	trueFaults := []NodeID{5, 40, 61}
	found, err := Diagnose(6, trueFaults, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != len(trueFaults) {
		t.Fatalf("diagnosed %v", found)
	}
	for i := range trueFaults {
		if found[i] != trueFaults[i] {
			t.Fatalf("diagnosed %v, want %v", found, trueFaults)
		}
	}
	keys := genKeys(640, 9)
	sorted, _, err := Sort(Config{Dim: 6, Faults: found}, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		t.Fatal("not sorted after diagnose+sort")
	}
}

func TestSortCustomCostAndModel(t *testing.T) {
	keys := genKeys(300, 3)
	_, stats, err := Sort(Config{
		Dim:    4,
		Faults: []NodeID{2},
		Model:  Total,
		Cost:   CostModel{Compare: 2, Elem: 7, Startup: 11},
	}, keys)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

func TestSortHalfExchangeProtocol(t *testing.T) {
	keys := genKeys(400, 5)
	a, _, err := Sort(Config{Dim: 4, Faults: []NodeID{6}}, keys)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Sort(Config{Dim: 4, Faults: []NodeID{6}, Protocol: HalfExchange}, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("protocols disagree")
		}
	}
}

func TestSortAccountDistribution(t *testing.T) {
	keys := genKeys(800, 7)
	_, plain, err := Sort(Config{Dim: 4, Faults: []NodeID{2}}, keys)
	if err != nil {
		t.Fatal(err)
	}
	sorted, dist, err := Sort(Config{Dim: 4, Faults: []NodeID{2}, AccountDistribution: true}, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		t.Fatal("not sorted with distribution accounting")
	}
	if dist.Makespan <= plain.Makespan {
		t.Errorf("distribution accounting did not increase time: %d vs %d", dist.Makespan, plain.Makespan)
	}
}

func TestSortTraceHook(t *testing.T) {
	var mu sync.Mutex
	count := 0
	cfg := Config{Dim: 3, Faults: []NodeID{1}, Trace: func(TraceEvent) {
		mu.Lock()
		count++
		mu.Unlock()
	}}
	if _, _, err := Sort(cfg, genKeys(100, 8)); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("trace hook never called")
	}
}

func TestSortWithLinkFaults(t *testing.T) {
	keys := genKeys(300, 11)
	sorted, stats, err := Sort(Config{
		Dim:        4,
		Faults:     []NodeID{6},
		LinkFaults: [][2]NodeID{{0, 1}, {9, 13}},
	}, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		t.Fatal("not sorted with link faults")
	}
	_, clean, err := Sort(Config{Dim: 4, Faults: []NodeID{6}}, keys)
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeyHops < clean.KeyHops {
		t.Error("link faults did not inflate traffic")
	}
	if _, err := New(Config{Dim: 4, LinkFaults: [][2]NodeID{{0, 3}}}); err == nil {
		t.Error("non-edge link fault accepted")
	}
}

func TestSelectionFacade(t *testing.T) {
	s, err := New(Config{Dim: 4, Faults: []NodeID{7, 11}})
	if err != nil {
		t.Fatal(err)
	}
	keys := genKeys(501, 12)
	ref := append([]Key(nil), keys...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })

	kth, stats, err := s.KthSmallest(keys, 100)
	if err != nil {
		t.Fatal(err)
	}
	if kth != ref[99] || stats.Makespan <= 0 {
		t.Errorf("KthSmallest = %d, want %d", kth, ref[99])
	}
	med, _, err := s.Median(keys)
	if err != nil {
		t.Fatal(err)
	}
	if med != ref[250] {
		t.Errorf("Median = %d, want %d", med, ref[250])
	}
	top, _, err := s.TopK(keys, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if top[i] != ref[len(ref)-5+i] {
			t.Errorf("TopK[%d] = %d, want %d", i, top[i], ref[len(ref)-5+i])
		}
	}
	if _, _, err := s.KthSmallest(keys, 0); err == nil {
		t.Error("rank 0 accepted")
	}
}

func TestSortEmptyAndFaultFree(t *testing.T) {
	sorted, _, err := Sort(Config{Dim: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != 0 {
		t.Errorf("sorted empty input into %v", sorted)
	}
}

func TestEngineFacadeSortAndConcurrency(t *testing.T) {
	eng := NewEngine(EngineConfig{PoolSize: 2})
	cfg := Config{Dim: 4, Faults: []NodeID{3}}
	keys := genKeys(500, 77)
	want, _, err := Sort(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, stats, err := eng.Sort(cfg, keys)
			if err != nil {
				t.Error(err)
				return
			}
			if stats.Makespan <= 0 {
				t.Error("no simulated time")
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("concurrent engine sort diverges at %d", j)
					return
				}
			}
		}()
	}
	wg.Wait()
	m := eng.Metrics()
	if m.PlanMisses != 1 {
		t.Errorf("plan searched %d times for one configuration", m.PlanMisses)
	}
}

func TestEngineRejectsTrace(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	cfg := Config{Dim: 3, Trace: func(TraceEvent) {}}
	if _, _, err := eng.Sort(cfg, genKeys(10, 1)); err == nil {
		t.Fatal("Engine accepted a Config.Trace")
	}
	res := eng.SortBatch([]Request{{Config: cfg, Keys: genKeys(10, 1)}})
	if res[0].Err == nil {
		t.Fatal("SortBatch accepted a Config.Trace")
	}
}

// TestSortBatchDispatchesOnlyAcceptedEntries: an entry whose Config the
// facade rejects fails alone and never reaches the engine, so it counts
// as no request there, and the accepted entries keep their positions.
func TestSortBatchDispatchesOnlyAcceptedEntries(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	defer eng.Close()
	traced := Config{Dim: 3, Trace: func(TraceEvent) {}}
	keys := genKeys(64, 3)
	res := eng.SortBatch([]Request{
		{Config: traced, Keys: keys},
		{Config: Config{Dim: 3}, Keys: keys},
		{Config: traced, Keys: keys},
	})
	if res[0].Err == nil || res[2].Err == nil {
		t.Fatal("SortBatch accepted a Config.Trace")
	}
	if res[1].Err != nil || len(res[1].Keys) != len(keys) || !sort.SliceIsSorted(res[1].Keys, func(i, j int) bool { return res[1].Keys[i] < res[1].Keys[j] }) {
		t.Fatalf("accepted entry: %d keys, err %v; want the sorted input", len(res[1].Keys), res[1].Err)
	}
	if m := eng.Metrics(); m.Requests != 1 {
		t.Fatalf("engine counted %d requests, want 1: rejected entries were dispatched", m.Requests)
	}
}

// TestProxyFacade drives the facade over the router in front of one
// loopback shard server: requests round-trip, the accessors report the
// proxy's view, a rejected batch entry never crosses the wire, and
// Partition fails with the documented error.
func TestProxyFacade(t *testing.T) {
	shard := engine.New(1, 1)
	defer shard.Close()
	proxy := NewRemoteCluster(ClusterConfig{}, []string{startShard(t, shard)})
	defer proxy.Close()

	keys := genKeys(64, 4)
	res := proxy.SortBatch([]Request{
		{Config: Config{Dim: 3}, Keys: keys},
		{Config: Config{Dim: 3, Trace: func(TraceEvent) {}}, Keys: keys},
	})
	if res[0].Err != nil || len(res[0].Keys) != len(keys) {
		t.Fatalf("proxied sort: %d keys, err %v", len(res[0].Keys), res[0].Err)
	}
	if res[1].Err == nil {
		t.Fatal("proxy accepted a Config.Trace")
	}
	cm, ok := proxy.ClusterMetrics()
	if !ok || cm.Requests != 1 {
		t.Fatalf("router counted %d requests (ok=%v), want 1", cm.Requests, ok)
	}
	if m := proxy.Metrics(); m.Requests != 1 {
		t.Fatalf("shard-summed engine metrics count %d requests, want 1", m.Requests)
	}
	if _, err := proxy.Partition(Config{Dim: 3}); !errors.Is(err, errProxyPartition) {
		t.Fatalf("Partition on a proxy: err %v, want errProxyPartition", err)
	}

	eng := NewEngine(EngineConfig{})
	defer eng.Close()
	if _, ok := eng.ClusterMetrics(); ok {
		t.Fatal("a single engine reported router metrics")
	}
	if eng.QueueWaitHint() != 0 {
		t.Fatal("a single engine reported a remote queue-wait hint")
	}
}

// TestSortBatchIsolatesErrors is the acceptance property: a batch with
// one invalid request still returns results for every valid one.
func TestSortBatchIsolatesErrors(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	keys := genKeys(200, 8)
	reqs := []Request{
		{Config: Config{Dim: 4, Faults: []NodeID{3}}, Op: OpSort, Keys: keys},
		{Config: Config{Dim: 4, Faults: []NodeID{99}}, Op: OpSort, Keys: keys}, // invalid fault
		{Config: Config{Dim: 3}, Op: OpKthSmallest, Keys: keys, K: 17},
		{Config: Config{Dim: 3}, Op: OpMedian, Keys: keys},
	}
	results := eng.SortBatch(reqs)
	if results[1].Err == nil {
		t.Fatal("invalid request did not fail")
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Fatalf("valid request %d failed: %v", i, results[i].Err)
		}
	}
	want, _, err := Sort(Config{Dim: 4, Faults: []NodeID{3}}, keys)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if results[0].Keys[j] != want[j] {
			t.Fatalf("batch result diverges at %d", j)
		}
	}
	sorted := append([]Key(nil), want...)
	if results[2].Value != sorted[16] {
		t.Errorf("kth = %d, want %d", results[2].Value, sorted[16])
	}
	if results[3].Value != sorted[(len(sorted)-1)/2] {
		t.Errorf("median = %d, want %d", results[3].Value, sorted[(len(sorted)-1)/2])
	}
}

func TestSumStats(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	keys := genKeys(300, 9)
	reqs := []Request{
		{Config: Config{Dim: 3}, Op: OpSort, Keys: keys},
		{Config: Config{Dim: 4, Faults: []NodeID{1}}, Op: OpSort, Keys: keys},
		{Config: Config{Dim: 4, Faults: []NodeID{77}}, Op: OpSort, Keys: keys}, // fails
	}
	results := eng.SortBatch(reqs)
	agg := SumStats(results)
	wantComp := results[0].Stats.Comparisons + results[1].Stats.Comparisons
	if agg.Comparisons != wantComp {
		t.Errorf("aggregate comparisons %d, want %d (failed request must not contribute)", agg.Comparisons, wantComp)
	}
	wantMk := results[0].Stats.Makespan
	if results[1].Stats.Makespan > wantMk {
		wantMk = results[1].Stats.Makespan
	}
	if agg.Makespan != wantMk {
		t.Errorf("aggregate makespan %d, want max %d", agg.Makespan, wantMk)
	}
}
