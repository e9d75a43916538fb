// The router throughput rig: the same 64-client storm as the engine
// rig, served by N in-process engine shards behind the consistent-hash
// router instead of one engine. It prices the router's own work — the
// ring lookup, spill and shed accounting — against a single engine; the
// remote cluster runs the same router over shard processes. Both serve
// direct-eligible sorts inline on the client goroutine. E23, E26 and
// E27 record the tables; E27 is why serve has no in-process sharding.
package hypersort

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypersort/internal/cluster"
	"hypersort/internal/cube"
	"hypersort/internal/engine"
	"hypersort/internal/obs"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// clusterBackend abstracts the two serving topologies under comparison;
// both rigs drive it through the same client loop.
type clusterBackend interface {
	Do(req engine.Request) engine.Result
	Close()
}

// runClusterThroughput drives the 64-client storm against be. Reports
// req/s; spill/shed totals are asserted, not reported — a shed request
// would make the comparison dishonest.
func runClusterThroughput(b *testing.B, be clusterBackend, configs []engine.Config, pick func(client int, i int64) int, sheds func() int64) {
	rng := xrand.New(7)
	inputs := make([][]sortutil.Key, throughputClients)
	for i := range inputs {
		inputs[i] = workload.MustGenerate(workload.Uniform, throughputM, rng)
	}
	for _, cfg := range configs {
		if res := be.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: inputs[0]}); res.Err != nil {
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
				if res := be.Do(req); res.Err != nil {
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
	if n := sheds(); n != 0 {
		b.Fatalf("%d requests shed during the benchmark: the comparison would be dishonest", n)
	}
}

// newBenchCluster builds the cluster under benchmark: direct substrate
// (matching the strongest single-engine baseline), one replica, and a
// shed limit high enough that the storm is never refused — the rig
// measures throughput, not admission policy.
func newBenchCluster(shards int) *cluster.Cluster {
	c := cluster.New(cluster.Options{
		Shards:    shards,
		Replicas:  1,
		ShedLimit: 1 << 20,
		PoolSize:  1,
		Workers:   throughputClients,
		Mode:      engine.ModeDirect,
	})
	c.Instrument(obs.NewRegistry())
	return c
}

// newBenchEngine builds the single-engine baseline on the direct
// substrate, so the cluster's margin is measured against the same inline
// route, not a strawman.
func newBenchEngine() *engine.Engine {
	e := engine.New(1, throughputClients)
	e.SetMode(engine.ModeDirect)
	e.Instrument(obs.NewRegistry())
	return e
}

// BenchmarkClusterThroughput compares the router over four in-process
// shards against the single engine on both storm shapes:
//
//   - hot: all 64 clients on ONE damaged-Q_2 configuration — the
//     consistent hash pins it to one home shard, so this measures the
//     inline direct path and replica spill, not shard spread.
//   - mix: clients cycling the four-rung degradation ladder — different
//     plan keys land on different shards.
//
// The router variant is named "cluster" with no shard count, so its rows
// keep one name at every GOMAXPROCS (a trailing -N would be read as the
// GOMAXPROCS suffix). Reproduce the E27 table with:
//
//	GOMAXPROCS=2 go test -run '^$' -bench BenchmarkClusterThroughput -benchtime 1000x .
func BenchmarkClusterThroughput(b *testing.B) {
	hot := []engine.Config{{Dim: 2, Faults: []cube.NodeID{3}}}
	mix := throughputConfigs()
	scenarios := []struct {
		name    string
		configs []engine.Config
		pick    func(int, int64) int
	}{
		{"hot", hot, func(int, int64) int { return 0 }},
		{"mix", mix, func(_ int, i int64) int { return int(i) % len(mix) }},
	}
	for _, sc := range scenarios {
		b.Run(sc.name+"/engine", func(b *testing.B) {
			e := newBenchEngine()
			defer e.Close()
			runClusterThroughput(b, e, sc.configs, sc.pick, func() int64 { return 0 })
		})
		b.Run(sc.name+"/cluster", func(b *testing.B) {
			c := newBenchCluster(4)
			defer c.Close()
			runClusterThroughput(b, c, sc.configs, sc.pick, func() int64 { return c.Metrics().Sheds })
		})
	}
}

// TestClusterThroughputSmoke is the CI-sized router storm: a concurrent
// burst over the degradation ladder must come back correctly sorted from
// four in-process shards behind the router, with every request
// accounted for and none shed. Run in the CI throughput-smoke leg at
// GOMAXPROCS=1 and 4.
func TestClusterThroughputSmoke(t *testing.T) {
	cl := cluster.New(cluster.Options{Shards: 4, Replicas: 1, PoolSize: 1, Workers: 32, Mode: engine.ModeDirect})
	defer cl.Close()
	ladder := []engine.Config{
		{Dim: 2},
		{Dim: 2, Faults: []cube.NodeID{3}},
		{Dim: 2, Faults: []cube.NodeID{2, 3}},
		{Dim: 1, Faults: []cube.NodeID{1}},
	}
	rng := xrand.New(13)
	const burst = 64
	inputs := make([][]Key, burst)
	for i := range inputs {
		inputs[i] = workload.MustGenerate(workload.Uniform, 64, rng)
	}
	results := make([]engine.Result, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = cl.Do(engine.Request{Config: ladder[i%len(ladder)], Op: engine.OpSort, Keys: inputs[i]})
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
	m := cl.Metrics()
	if m.Requests != burst {
		t.Fatalf("router saw %d requests, want %d", m.Requests, burst)
	}
	if m.Engine.Requests != burst {
		t.Fatalf("shards served %d requests, want %d", m.Engine.Requests, burst)
	}
	if m.Sheds != 0 {
		t.Fatalf("%d requests shed with default thresholds under a %d-burst", m.Sheds, burst)
	}
	t.Logf("cluster smoke: %d requests, %d spills, shards served %v",
		m.Requests, m.Spills, func() []int64 {
			var per []int64
			for _, sm := range m.Shards {
				per = append(per, sm.Requests)
			}
			return per
		}())
}
