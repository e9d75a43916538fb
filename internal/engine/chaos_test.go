package engine

import (
	"fmt"
	"sync"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// TestChaosRecoveryEndToEnd is the acceptance smoke: a clean run
// establishes the healthy makespan, a kill is armed at half of it, and
// the re-run must die mid-sort, diagnose, replan, and still produce the
// full sorted input — with the recovery instruments populated.
func TestChaosRecoveryEndToEnd(t *testing.T) {
	e := New(2, 2)
	reg := obs.NewRegistry()
	e.Instrument(reg)

	cfg := Config{Dim: 4}
	keys := workload.MustGenerate(workload.Uniform, 500, xrand.New(61))

	clean := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}
	mid := clean.Res.Makespan / 2
	if mid <= 0 {
		t.Fatalf("healthy makespan %d too small to bisect", clean.Res.Makespan)
	}
	if err := e.InjectFault(cfg, machine.Injection{Kind: machine.KillNode, Node: 5, At: mid}); err != nil {
		t.Fatal(err)
	}

	res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatalf("recovery failed: %v", res.Err)
	}
	if !keysEqual(res.Keys, sortedRef(keys)) {
		t.Fatal("recovered output is not the sorted input")
	}
	m := e.Metrics()
	if m.Replans < 1 {
		t.Fatalf("Replans = %d, want >= 1", m.Replans)
	}
	if m.Unrecoverable != 0 {
		t.Fatalf("Unrecoverable = %d, want 0", m.Unrecoverable)
	}
	snap := reg.Snapshot()
	if v := snap["hypersort_engine_recovery_latency_ns"]; v.Count < 1 {
		t.Fatalf("recovery latency histogram empty: %+v", v)
	}
	if v := snap["hypersort_engine_replans_total"]; v.Value < 1 {
		t.Fatalf("replans counter = %d", v.Value)
	}
	if v := snap["hypersort_engine_keys_redistributed_total"]; v.Value < int64(len(keys)) {
		t.Fatalf("keys redistributed = %d, want >= %d", v.Value, len(keys))
	}
}

// chaosScenario is one randomized mid-run kill schedule: an initial
// static fault set plus a sequence of victims struck live, with the
// total casualty count inside the paper's r <= n-1 guarantee band.
type chaosScenario struct {
	dim     int
	faults  []cube.NodeID
	victims []cube.NodeID
	keys    int
}

// drawScenario derives a within-budget scenario from (dim, seed). The
// same pair always yields the same scenario, so a failing case is
// reproducible from the subtest name alone.
func drawScenario(dim int, seed uint64) chaosScenario {
	rng := xrand.New(seed)
	budget := dim - 1
	r0 := rng.IntN(budget) // initial static faults, 0..budget-1
	kills := 1 + rng.IntN(budget-r0)
	perm := rng.Perm(1 << dim)
	sc := chaosScenario{dim: dim, keys: 150 + rng.IntN(350)}
	for _, v := range perm[:r0] {
		sc.faults = append(sc.faults, cube.NodeID(v))
	}
	for _, v := range perm[r0 : r0+kills] {
		sc.victims = append(sc.victims, cube.NodeID(v))
	}
	return sc
}

// runScenario arms the kill schedule and executes one sort. Victim k is
// armed on the configuration recovery reaches after k prior casualties
// (base faults plus victims[:k]) — the plan key canonicalizes fault
// order, so these are exactly the pools the nested recovery runs lease
// from — which makes the kills strike sequentially, each one hitting the
// recovery run of the previous one.
func runScenario(t *testing.T, e *Engine, sc chaosScenario) Result {
	t.Helper()
	for k, v := range sc.victims {
		cfgK := Config{Dim: sc.dim, Faults: append(append([]cube.NodeID(nil), sc.faults...), sc.victims[:k]...)}
		if err := e.InjectFault(cfgK, machine.Injection{Kind: machine.KillNode, Node: v, At: machine.Time(k)}); err != nil {
			t.Fatalf("arm victim %d on level %d: %v", v, k, err)
		}
	}
	keys := workload.MustGenerate(workload.Uniform, sc.keys, xrand.New(uint64(sc.keys)))
	res := e.Do(Request{Config: Config{Dim: sc.dim, Faults: sc.faults}, Op: OpSort, Keys: keys})
	if res.Err == nil && !keysEqual(res.Keys, sortedRef(keys)) {
		t.Fatal("output is not the sorted input")
	}
	return res
}

// TestChaosPropertySeeded is the randomized chaos property: across
// n = 3..6 and seeded kill schedules with total casualties <= n-1, the
// sort must always complete with the correct sorted output, one replan
// per fired kill, and no unrecoverable verdicts.
func TestChaosPropertySeeded(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for dim := 3; dim <= 6; dim++ {
		for seed := uint64(1); seed <= uint64(trials); seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", dim, seed), func(t *testing.T) {
				sc := drawScenario(dim, seed)
				e := New(1, 1)
				res := runScenario(t, e, sc)
				if res.Err != nil {
					t.Fatalf("scenario %+v must recover (within budget), got: %v", sc, res.Err)
				}
				m := e.Metrics()
				if m.Replans != int64(len(sc.victims)) {
					t.Fatalf("Replans = %d, want %d (one per kill); scenario %+v", m.Replans, len(sc.victims), sc)
				}
				if m.Unrecoverable != 0 {
					t.Fatalf("Unrecoverable = %d on a within-budget scenario %+v", m.Unrecoverable, sc)
				}
			})
		}
	}
}

// TestChaosRecoveredOutputDeterministic runs the same scenario on two
// fresh engines: the recovered output, the degraded makespan, and the
// replan count must be bit-identical — recovery is as deterministic as
// the healthy path.
func TestChaosRecoveredOutputDeterministic(t *testing.T) {
	sc := drawScenario(5, 7)
	run := func() (Result, Metrics) {
		e := New(1, 1)
		res := runScenario(t, e, sc)
		return res, e.Metrics()
	}
	a, am := run()
	b, bm := run()
	if a.Err != nil || b.Err != nil {
		t.Fatalf("runs failed: %v / %v", a.Err, b.Err)
	}
	if !keysEqual(a.Keys, b.Keys) {
		t.Fatal("recovered outputs diverge between identical runs")
	}
	if a.Res.Makespan != b.Res.Makespan {
		t.Fatalf("recovered makespans diverge: %d vs %d", a.Res.Makespan, b.Res.Makespan)
	}
	if am.Replans != bm.Replans {
		t.Fatalf("replan counts diverge: %d vs %d", am.Replans, bm.Replans)
	}
}

// TestChaosConcurrentInjectionRace races live arming against in-flight
// dispatch: worker goroutines sort continuously while another goroutine
// repeatedly arms the same single-victim kill. Every request must end
// with the correct sorted output whether it ran before the arm, died and
// recovered, or started on an already-degraded pool. Run under -race
// this doubles as the injector/dispatcher memory-safety check.
func TestChaosConcurrentInjectionRace(t *testing.T) {
	e := New(2, 4)
	cfg := Config{Dim: 4}
	keys := workload.MustGenerate(workload.Uniform, 200, xrand.New(77))
	want := sortedRef(keys)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := e.InjectFault(cfg, machine.Injection{Kind: machine.KillNode, Node: 3, At: machine.Time(i)}); err != nil {
				errs <- fmt.Errorf("arm %d: %w", i, err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
				if res.Err != nil {
					errs <- fmt.Errorf("sort: %w", res.Err)
					return
				}
				if !keysEqual(res.Keys, want) {
					errs <- fmt.Errorf("unsorted output under concurrent injection")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := e.Metrics(); m.Unrecoverable != 0 {
		t.Fatalf("single repeated victim on Q_4 is within budget; Unrecoverable = %d", m.Unrecoverable)
	}
}
