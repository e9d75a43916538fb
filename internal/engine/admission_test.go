package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// gateTrace installs a machine trace hook that blocks every traced event
// until the returned release function is called — the deterministic way
// to hold a request "running" on its leased machine while the test
// arranges admission and pool conditions behind it. Must be installed
// before the engine builds any machine.
func gateTrace(e *Engine) (release func()) {
	gate := make(chan struct{})
	e.SetTrace(func(machine.TraceEvent) { <-gate })
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// inflight reads cfg's admission count: the requests currently admitted
// on the configuration (running, or waiting for a machine).
func inflight(e *Engine, cfg Config) int64 {
	key := e.planKey(cfg)
	e.mu.Lock()
	entry := e.plans[key]
	e.mu.Unlock()
	if entry == nil {
		return 0
	}
	return entry.inflight.Load()
}

// TestCancelWhileQueuedBatchedPath: requests of a BatchContext call
// that wait behind a saturated pool must all return promptly with the
// context error once the shared context is cancelled, and must leak
// neither a pool token nor an admission slot — the engine stays fully
// usable.
func TestCancelWhileQueuedBatchedPath(t *testing.T) {
	e := New(1, 4)
	release := gateTrace(e)
	defer release()

	cfg := Config{Dim: 3, Faults: []cube.NodeID{2}}
	keys := workload.MustGenerate(workload.Uniform, 64, xrand.New(11))

	// Request 1 leases the only machine and stalls on the trace gate.
	first := make(chan Result, 1)
	go func() { first <- e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}) }()
	waitFor(t, "first request to lease the machine", func() bool {
		return e.Metrics().MachinesBuilt == 1
	})

	// A batch of three queues behind it; cancel while they wait.
	ctx, cancel := context.WithCancel(context.Background())
	batch := make(chan []Result, 1)
	go func() {
		reqs := []Request{
			{Config: cfg, Op: OpSort, Keys: keys},
			{Config: cfg, Op: OpMedian, Keys: keys},
			{Config: cfg, Op: OpSort, Keys: keys},
		}
		batch <- e.BatchContext(ctx, reqs)
	}()
	waitFor(t, "the batch to wait for the machine", func() bool { return inflight(e, cfg) == 4 })
	cancel()
	select {
	case results := <-batch:
		for i, res := range results {
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("batch request %d returned %v, want context.Canceled", i, res.Err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch did not return promptly")
	}
	if got := e.Metrics().Cancelled; got != 3 {
		t.Fatalf("Cancelled = %d, want 3", got)
	}

	// Unblock request 1 and prove nothing leaked: it completes, a fresh
	// request still gets the machine, and the admission count drains.
	release()
	if res := <-first; res.Err != nil {
		t.Fatalf("first request failed: %v", res.Err)
	}
	if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatalf("request after cancellation failed: %v", res.Err)
	}
	if n := inflight(e, cfg); n != 0 {
		t.Fatalf("admission count = %d after every request returned, want 0", n)
	}
}

// TestCancelWhileQueuedDirectPath covers the same regression for a
// single DoContext call: a request blocked in the machine pool's
// acquire must honor cancellation.
func TestCancelWhileQueuedDirectPath(t *testing.T) {
	e := New(1, 4)
	release := gateTrace(e)
	defer release()

	cfg := Config{Dim: 3}
	keys := workload.MustGenerate(workload.Uniform, 64, xrand.New(12))
	first := make(chan Result, 1)
	go func() { first <- e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}) }()
	waitFor(t, "first request to lease the machine", func() bool {
		return e.Metrics().MachinesBuilt == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan Result, 1)
	go func() {
		second <- e.DoContext(ctx, Request{Config: cfg, Op: OpSort, Keys: keys})
	}()
	waitFor(t, "second request to wait for the machine", func() bool { return inflight(e, cfg) == 2 })
	cancel()
	select {
	case res := <-second:
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("cancelled request returned %v, want context.Canceled", res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return promptly")
	}
	if got := e.Metrics().Cancelled; got != 1 {
		t.Fatalf("Cancelled = %d, want 1", got)
	}
	release()
	if res := <-first; res.Err != nil {
		t.Fatalf("first request failed: %v", res.Err)
	}
	if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatalf("request after cancellation failed: %v", res.Err)
	}
}

// TestAdmissionRejection holds a configuration at its in-flight bound —
// one request running on the stalled machine, one waiting for it — and
// checks every further arrival is refused fast with
// ErrAdmissionRejected while both admitted requests still complete.
func TestAdmissionRejection(t *testing.T) {
	e := NewOpts(1, 16, BatchOptions{QueueDepth: 2})
	release := gateTrace(e)
	defer release()

	cfg := Config{Dim: 3, Faults: []cube.NodeID{1}}
	keys := workload.MustGenerate(workload.Uniform, 64, xrand.New(13))
	admitted := make(chan Result, 2)
	for i := 0; i < 2; i++ {
		go func() { admitted <- e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}) }()
	}
	waitFor(t, "both admitted requests", func() bool { return inflight(e, cfg) == 2 })

	const followers = 6
	for i := 0; i < followers; i++ {
		op := OpSort
		if i%2 == 1 {
			op = OpMedian // the bound covers every op, not only sorts
		}
		res := e.Do(Request{Config: cfg, Op: op, Keys: keys})
		if !errors.Is(res.Err, ErrAdmissionRejected) {
			t.Fatalf("follower %d returned %v, want ErrAdmissionRejected", i, res.Err)
		}
	}
	// Another configuration has its own bound: admitted, it waits at
	// the gate like the first two.
	other := make(chan Result, 1)
	go func() { other <- e.Do(Request{Config: Config{Dim: 2}, Op: OpSort, Keys: keys}) }()
	waitFor(t, "the other configuration's request", func() bool { return inflight(e, Config{Dim: 2}) == 1 })
	release()
	for i := 0; i < 2; i++ {
		if res := <-admitted; res.Err != nil {
			t.Fatalf("admitted request failed: %v", res.Err)
		}
	}
	if res := <-other; res.Err != nil {
		t.Fatalf("other configuration's request failed: %v", res.Err)
	}
	if got := e.Metrics().AdmissionRejected; got != followers {
		t.Fatalf("AdmissionRejected metric = %d, want %d", got, followers)
	}
	if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatalf("request after the bound drained failed: %v", res.Err)
	}
}

// TestLeaseSortRunReuseMatchesFresh pins the lease-held SortRun: a
// single-machine pool serving a sequence of sorts — varying key counts
// and configurations, so the retained run is sometimes re-armed and
// sometimes rebuilt — must return keys and deterministic virtual-time
// stats identical to a fresh engine's.
func TestLeaseSortRunReuseMatchesFresh(t *testing.T) {
	rng := xrand.New(42)
	pooled := New(1, 1)
	for trial := 0; trial < 4; trial++ {
		dim := 3 + rng.IntN(3) // 3..5
		h := cube.New(dim)
		seen := cube.NewNodeSet()
		var faults []cube.NodeID
		for len(faults) < rng.IntN(dim) {
			f := cube.NodeID(rng.IntN(h.Size()))
			if !seen.Has(f) {
				seen.Add(f)
				faults = append(faults, f)
			}
		}
		for i := 0; i < 6; i++ {
			cfg := Config{Dim: dim, Faults: faults}
			req := Request{Config: cfg, Op: OpSort, Keys: workload.MustGenerate(workload.Uniform, 50+rng.IntN(350), rng)}
			fresh := New(1, 1)
			want := fresh.Do(req)
			got := pooled.Do(req)
			label := fmt.Sprintf("trial %d request %d (dim %d, faults %v, %d keys)",
				trial, i, dim, faults, len(req.Keys))
			if (got.Err != nil) != (want.Err != nil) {
				t.Fatalf("%s: pooled err %v, fresh err %v", label, got.Err, want.Err)
			}
			if want.Err != nil {
				continue
			}
			if !keysEqual(got.Keys, want.Keys) || !keysEqual(got.Keys, sortedRef(req.Keys)) {
				t.Fatalf("%s: pooled keys diverge from a fresh run", label)
			}
			g, w := got.Res, want.Res
			if g.Makespan != w.Makespan || g.Messages != w.Messages ||
				g.KeysSent != w.KeysSent || g.KeyHops != w.KeyHops ||
				g.Comparisons != w.Comparisons {
				t.Fatalf("%s: stats differ:\npooled %+v\nfresh  %+v", label, g, w)
			}
		}
	}
}

// TestSelectionOpsBypassLanes pins the routing rule for selection ops:
// they never take the direct route, even in ModeDirect — they run their
// own multi-run protocols on a leased machine.
func TestSelectionOpsBypassLanes(t *testing.T) {
	e := New(2, 4)
	e.SetMode(ModeDirect)
	cfg := Config{Dim: 4, Faults: []cube.NodeID{7}}
	keys := workload.MustGenerate(workload.Uniform, 200, xrand.New(21))
	sorted := sortedRef(keys)
	if res := e.Do(Request{Config: cfg, Op: OpMedian, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	} else if res.Direct || res.Value != sorted[(len(sorted)-1)/2] {
		t.Fatalf("median: direct=%v value=%d, want simulated %d", res.Direct, res.Value, sorted[(len(sorted)-1)/2])
	}
	if res := e.Do(Request{Config: cfg, Op: OpTopK, Keys: keys, K: 5}); res.Err != nil {
		t.Fatal(res.Err)
	} else if res.Direct || !keysEqual(res.Keys, sorted[len(sorted)-5:]) {
		t.Fatalf("top-5: direct=%v keys=%v", res.Direct, res.Keys)
	}
	if m := e.Metrics(); m.DirectRequests != 0 || m.MachinesBuilt == 0 {
		t.Fatalf("selection ops: DirectRequests = %d, MachinesBuilt = %d; want 0 and > 0", m.DirectRequests, m.MachinesBuilt)
	}
}

// TestDoAfterCloseFallsBackToDirectPath: a closed engine must keep
// serving sorts correctly, on the machines it already pooled.
func TestDoAfterCloseFallsBackToDirectPath(t *testing.T) {
	e := New(2, 4)
	cfg := Config{Dim: 3}
	keys := workload.MustGenerate(workload.Uniform, 100, xrand.New(31))
	if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	}
	e.Close()
	res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatalf("sort after Close failed: %v", res.Err)
	}
	if !keysEqual(res.Keys, sortedRef(keys)) {
		t.Fatal("sort after Close returned wrong keys")
	}
	if m := e.Metrics(); m.MachinesBuilt != 1 || m.MachinesCloned != 0 {
		t.Fatalf("sort after Close built %d and cloned %d machines, want the pooled one reused", m.MachinesBuilt, m.MachinesCloned)
	}
	e.Close() // idempotent
}

// TestDeadOnArrivalNeverAdmitted: an already-cancelled context short-
// circuits before planning, admission, or any machine.
func TestDeadOnArrivalNeverAdmitted(t *testing.T) {
	e := NewOpts(1, 4, BatchOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.DoContext(ctx, Request{Config: Config{Dim: 3}, Op: OpSort,
		Keys: workload.MustGenerate(workload.Uniform, 50, xrand.New(41))})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("dead-on-arrival request returned %v, want context.Canceled", res.Err)
	}
	if m := e.Metrics(); m.MachinesBuilt != 0 {
		t.Fatalf("dead-on-arrival request built a machine")
	}
}
