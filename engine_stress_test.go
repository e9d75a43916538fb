package hypersort

import (
	"fmt"
	"sync"
	"testing"

	"hypersort/internal/machine"
	"hypersort/internal/xrand"
)

// TestEngineStress hammers one Engine from 64 goroutines across several
// configurations with deliberately small pools, verifying no deadlock,
// no cross-request key leakage, and stable results. Each goroutine owns
// a distinct key slice derived from its index, so any machine-reuse or
// batching bug that mixes requests shows up as a wrong multiset, not
// just a misordering. Run it under -race (the CI race job does); skipped
// in -short mode.
func TestEngineStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	// Poison released payloads for the whole stress run: with buffer
	// recycling live, any kernel that reads a buffer after Release — or
	// any pool bug that hands one buffer to two owners — surfaces as a
	// poison sentinel in the tagged-key range checks below.
	machine.SetReleasePoison(true)
	defer machine.SetReleasePoison(false)
	configs := []Config{
		{Dim: 3},
		{Dim: 4, Faults: []NodeID{3}},
		{Dim: 5, Faults: []NodeID{3, 17}, Model: Total},
		{Dim: 5, Faults: []NodeID{0, 12, 25, 31}},
		{Dim: 6, Faults: []NodeID{0, 21, 42}, Cost: DefaultCostModel()},
		// Multipath routing stripes large compare-split transfers
		// across disjoint paths, one pooled payload per stripe.
		{Dim: 5, Faults: []NodeID{7, 19}, Routing: RouteMultipath},
	}
	eng := NewEngine(EngineConfig{PoolSize: 2, BatchWorkers: 8})

	const (
		workers = 64
		iters   = 6
	)
	var wg sync.WaitGroup
	failures := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w) + 1)
			for it := 0; it < iters; it++ {
				cfg := configs[(w+it)%len(configs)]
				n := 32 + rng.IntN(128)
				keys := make([]Key, n)
				// Tag every key with the owner's identity so leaked keys
				// are attributable: worker w's keys all live in
				// [w*1e6, w*1e6+1e6).
				base := Key(w) * 1_000_000
				for j := range keys {
					keys[j] = base + Key(rng.IntN(1_000_000))
				}
				got, stats, err := eng.Sort(cfg, keys)
				if err != nil {
					failures <- fmt.Errorf("worker %d iter %d: %v", w, it, err)
					return
				}
				if len(got) != n {
					failures <- fmt.Errorf("worker %d iter %d: %d keys back, sent %d", w, it, len(got), n)
					return
				}
				for j, k := range got {
					if k < base || k >= base+1_000_000 {
						failures <- fmt.Errorf("worker %d iter %d: foreign key %d at %d — cross-request leakage", w, it, k, j)
						return
					}
					if j > 0 && got[j-1] > k {
						failures <- fmt.Errorf("worker %d iter %d: unsorted at %d", w, it, j)
						return
					}
				}
				if stats.Makespan <= 0 {
					failures <- fmt.Errorf("worker %d iter %d: empty stats", w, it)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Error(err)
	}

	m := eng.Metrics()
	if m.Requests != workers*iters {
		t.Errorf("requests = %d, want %d", m.Requests, workers*iters)
	}
	// One partition search per configuration, no matter the pressure.
	if m.PlanMisses != int64(len(configs)) {
		t.Errorf("plan misses = %d, want %d", m.PlanMisses, len(configs))
	}
	// Pools are bounded at 2 machines per configuration.
	if max := int64(2 * len(configs)); m.MachinesBuilt+m.MachinesCloned > max {
		t.Errorf("%d machines created, bound is %d", m.MachinesBuilt+m.MachinesCloned, max)
	}
}

// TestEngineStressBatch replays a mixed-configuration batch repeatedly
// and demands bit-identical results every round: the simulator's virtual
// time is scheduling-independent, so pooled concurrency must not change
// any result or any Stats. Skipped in -short mode.
func TestEngineStressBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	rng := xrand.New(99)
	var reqs []Request
	for i := 0; i < 48; i++ {
		dim := 2 + i%4
		var faults []NodeID
		if i%3 != 0 {
			faults = []NodeID{NodeID(rng.IntN(1 << dim))}
		}
		keys := make([]Key, 64+rng.IntN(64))
		for j := range keys {
			keys[j] = Key(rng.IntN(1 << 20))
		}
		reqs = append(reqs, Request{Config: Config{Dim: dim, Faults: faults}, Op: OpSort, Keys: keys})
	}
	eng := NewEngine(EngineConfig{PoolSize: 3})
	first := eng.SortBatch(reqs)
	for round := 0; round < 3; round++ {
		again := eng.SortBatch(reqs)
		for i := range reqs {
			if (first[i].Err == nil) != (again[i].Err == nil) {
				t.Fatalf("round %d req %d: error instability", round, i)
			}
			if first[i].Stats != again[i].Stats {
				t.Fatalf("round %d req %d: stats drift: %+v vs %+v", round, i, first[i].Stats, again[i].Stats)
			}
			for j := range first[i].Keys {
				if first[i].Keys[j] != again[i].Keys[j] {
					t.Fatalf("round %d req %d: result drift at %d", round, i, j)
				}
			}
		}
	}
}
