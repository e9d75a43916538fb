// The engine throughput rig: many concurrent clients hammering sort
// requests with small inputs — the per-request-overhead-dominated
// regime. Two scenarios:
//
//   - BenchmarkEngineThroughput (the headline): 64 clients on ONE
//     configuration, a Q_2 cube that lost a processor, all contending
//     for its single pooled machine (or, direct, none at all).
//
//   - BenchmarkEngineThroughputMix: the same clients spread over a
//     degradation ladder of four configurations, so four machines
//     overlap. E20 and E26 record both tables.
package hypersort

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypersort/internal/cube"
	"hypersort/internal/engine"
	"hypersort/internal/obs"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

const (
	throughputClients = 64
	throughputM       = 16 // keys per request: small-M, dispatch-dominated
)

// throughputModes are the substrates under comparison: every sort on a
// leased simulated machine, or every sort inline on the direct
// host-speed substrate.
var throughputModes = []struct {
	name string
	mode engine.Mode
}{
	{"sim", engine.ModeSim},
	{"direct", engine.ModeDirect},
}

// throughputConfigs is the mix scenario's configuration ladder: a
// healthy Q_2 degrading down to a single surviving processor — the
// fault-tolerance regimes the paper's algorithm exists for. Degraded
// cubes have small working sets, so their kernels are cheap and the
// per-request dispatch ceremony dominates.
func throughputConfigs() []engine.Config {
	return []engine.Config{
		{Dim: 2},                              // 4 working nodes
		{Dim: 2, Faults: []cube.NodeID{3}},    // 3 working nodes
		{Dim: 2, Faults: []cube.NodeID{2, 3}}, // 2 working nodes
		{Dim: 1, Faults: []cube.NodeID{1}},    // 1 working node
	}
}

// runThroughput drives one mode of one scenario: clients goroutines
// work-steal requests from a shared counter until b.N are served, each
// request picking its configuration through pick. Reports req/s and the
// p99 nanoseconds a request waited for a machine (from the engine's own
// queue-wait histogram).
func runThroughput(b *testing.B, mode engine.Mode, configs []engine.Config, pick func(client int, i int64) int) {
	rng := xrand.New(7)
	inputs := make([][]sortutil.Key, throughputClients)
	for i := range inputs {
		inputs[i] = workload.MustGenerate(workload.Uniform, throughputM, rng)
	}

	// A private registry per mode: the p99 read below must see only this
	// run's waits, not the process-lifetime default registry shared with
	// every other test.
	reg := obs.NewRegistry()
	// One machine per configuration: a saturated pool.
	e := engine.New(1, throughputClients)
	e.SetMode(mode)
	e.Instrument(reg)
	defer e.Close()
	em := obs.NewEngineMetrics(reg) // same instruments: registration is idempotent

	// Warm plans and pool templates outside the timer.
	for _, cfg := range configs {
		if res := e.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: inputs[0]}); res.Err != nil {
			b.Fatal(res.Err)
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < throughputClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				req := engine.Request{
					Config: configs[pick(c, i)],
					Op:     engine.OpSort,
					Keys:   inputs[c],
				}
				if res := e.Do(req); res.Err != nil {
					b.Error(res.Err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
	b.ReportMetric(float64(em.QueueWait.Quantile(0.99)), "p99-wait-ns")
}

// BenchmarkEngineThroughput is the headline scenario: 64 concurrent
// clients issuing small sorts against one damaged cube (Q_2 with one
// fault, three working processors) — simulated versus direct.
//
// Run with GOMAXPROCS=4 to reproduce the E26 table:
//
//	GOMAXPROCS=4 go test -run '^$' -bench BenchmarkEngineThroughput -benchtime 2s .
func BenchmarkEngineThroughput(b *testing.B) {
	hot := []engine.Config{{Dim: 2, Faults: []cube.NodeID{3}}}
	for _, mode := range throughputModes {
		b.Run(mode.name, func(b *testing.B) {
			runThroughput(b, mode.mode, hot, func(int, int64) int { return 0 })
		})
	}
}

// BenchmarkEngineThroughputMix spreads the same client population over
// the four-rung degradation ladder, each request cycling to the next
// rung, so at most a quarter of the in-flight requests contend for any
// one machine.
func BenchmarkEngineThroughputMix(b *testing.B) {
	configs := throughputConfigs()
	for _, mode := range throughputModes {
		b.Run(mode.name, func(b *testing.B) {
			runThroughput(b, mode.mode, configs, func(_ int, i int64) int { return int(i) % len(configs) })
		})
	}
}

// TestEngineThroughputSmoke is the CI-sized version of the rig: a burst
// of concurrent small direct-eligible sorts must complete correctly, ALL
// on the inline direct route, and none refused by admission — so a
// regression that silently sends eligible sorts to the machine pool, or
// that admits concurrent requests wrongly, fails here, not in a
// benchmark nobody is watching.
func TestEngineThroughputSmoke(t *testing.T) {
	e := engine.New(1, 32)
	e.SetMode(engine.ModeDirect)
	defer e.Close()
	cfg := engine.Config{Dim: 4, Faults: []cube.NodeID{3}}
	rng := xrand.New(9)

	const burst = 32
	inputs := make([][]sortutil.Key, burst)
	for i := range inputs {
		inputs[i] = workload.MustGenerate(workload.Uniform, 128, rng)
	}
	results := make([]engine.Result, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: inputs[i]})
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if len(res.Keys) != len(inputs[i]) {
			t.Fatalf("request %d: %d keys out, %d in", i, len(res.Keys), len(inputs[i]))
		}
		for j := 1; j < len(res.Keys); j++ {
			if res.Keys[j-1] > res.Keys[j] {
				t.Fatalf("request %d: output not sorted at %d", i, j)
			}
		}
	}
	mtr := e.Metrics()
	if mtr.DirectRequests != burst {
		t.Fatalf("DirectRequests = %d, want %d: an eligible sort left the direct route", mtr.DirectRequests, burst)
	}
	if mtr.AdmissionRejected != 0 {
		t.Fatalf("AdmissionRejected = %d under a %d-burst, want 0", mtr.AdmissionRejected, burst)
	}
}
