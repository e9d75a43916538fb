// Command serve runs the concurrent sort engine as an HTTP service —
// the production-shaped front end to the library: many independent
// requests against a recurring set of (dim, faults) configurations,
// served from the engine's plan cache and machine pools.
//
// Usage:
//
//	serve -addr :8080 [-pool 4] [-workers 8] [-trace-buf 65536] [-trace-sample 1]
//	serve [-mode auto|direct|sim] [-oracle-sample 0] [-routing ecube|multipath]
//	serve [-admission-queue 256]
//	serve -cluster-mode=shard -addr :9101
//	serve -cluster-mode=proxy -shard-addrs host1:9101,host2:9101,host3:9101
//	      [-replicas 1] [-spill-high-water 16] [-shed-limit 256]
//	serve -demo [-requests 256] [-m 4000] [-seed 1]
//
// Each request takes one route: an eligible sort runs on the direct
// substrate inline, everything else on a pooled simulated machine. When
// a configuration already has -admission-queue requests in flight,
// further requests answer 503 with Retry-After — backpressure, not
// client error; the Retry-After value is the ceiling of the observed
// median machine-pool wait (minimum 1s).
//
// -cluster-mode splits serving across PROCESSES (see DESIGN.md §11 and
// §13). "shard" serves one engine over the pipelined binary wire
// protocol instead of HTTP — start N of them, one per core or host.
// "proxy" serves the normal HTTP API but routes every request to the
// shard processes named by -shard-addrs on a consistent-hash ring: each
// configuration keeps landing on its home shard, hot configurations
// spill to -replicas replica shards past -spill-high-water in-flight
// requests, and when home plus replicas all reach -shed-limit the proxy
// sheds with the same 503 contract before the request reaches any
// shard. Spill and shed read the live in-flight gauges each shard feeds
// back on every response. A dead shard is detected by transport error,
// routed around via ring successors (zero failed requests for in-flight
// storms), and reprobed until it returns. The engine-tuning flags
// (-pool, -admission-queue, ...) apply where the engines live: pass
// them to the shard processes, not the proxy.
//
// -mode selects the execution substrate. "sim" (the historical
// behaviour) runs every sort on the simulated machine with measured
// stats. "direct" serves eligible sorts at host speed with predicted
// stats ("direct":true in the response); the simulator remains the
// oracle and the only path while -chaos injections are armed. "auto"
// (the default) picks direct when it can be done faithfully — which
// with the default tracing-on configuration means sim; pass
// -trace-buf 0 to let auto serve direct. -oracle-sample N cross-checks
// one in N direct results against the simulator.
//
// -routing selects the default compare-split routing policy. "ecube"
// (the default) is the paper's dimension-order discipline with hop-count
// pricing. "multipath" stripes large transfers across vertex-disjoint
// paths and prices per-link queueing into the simulated makespan;
// multipath requests always run on the simulator (never direct). A request may override the default with
// its own "routing" field. See DESIGN.md §12 and the routing-modes
// section of README.md.
//
// Endpoints:
//
//	POST /v1/sort    one request  {"dim":6,"faults":[3,17],"keys":[...]}
//	POST /v1/batch   {"requests":[...]} — per-request error isolation
//	GET  /metrics    Prometheus text-format exposition of every metric
//	GET  /v1/metrics engine counters, process memory stats, and the
//	                 metrics registry snapshot as JSON
//	GET  /v1/trace   Chrome trace-event JSON of the most recent machine
//	                 events (?last=N trims; load in ui.perfetto.dev)
//	GET  /debug/pprof/  live profiling (heap, allocs, goroutine, profile)
//	GET  /healthz
//
// With -chaos, two drill endpoints arm live casualties against a
// configuration's machine pool (see DESIGN.md §9):
//
//	POST /v1/chaos/inject  {"dim":4,"kill_node":5,"at":120} or
//	                       {"dim":4,"kill_link":[0,1],"after_messages":7}
//	POST /v1/chaos/disarm  {"dim":4} — stand the drill down
//
// Sorts struck by an armed kill recover in-flight — online diagnosis,
// hot replan, key redistribution — and still answer 200 with the sorted
// keys; recovery latency and replan counters land on /metrics.
//
// See OBSERVABILITY.md for the full metric and trace reference.
//
// The -demo flag skips the network entirely and measures batch
// throughput on synthetic traffic: the same requests served by fresh
// per-call construction (plan search + machine build every time) versus
// the warm engine (cached plans, pooled machines), printing both
// wall-clock times and the speedup.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hypersort"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/trace"
	"hypersort/internal/transport"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		pool        = flag.Int("pool", 0, "machines pooled per configuration (0 = GOMAXPROCS)")
		workers     = flag.Int("workers", 0, "concurrent batch requests (0 = GOMAXPROCS)")
		admission   = flag.Int("admission-queue", 0, "in-flight requests allowed per configuration before 503s (0 = default)")
		clusterMode = flag.String("cluster-mode", "", "multi-process role: \"shard\" serves one engine over the binary wire protocol, \"proxy\" fronts -shard-addrs over HTTP (\"\" = in-process)")
		shardAddrs  = flag.String("shard-addrs", "", "comma-separated shard process addresses for -cluster-mode=proxy")
		replicas    = flag.Int("replicas", -1, "replica shards a hot plan key may spill to (-1 = default 1, 0 = spill off; proxy only)")
		spillHW     = flag.Int("spill-high-water", 0, "in-flight requests on a home shard before spilling to replicas (0 = default)")
		shedLimit   = flag.Int("shed-limit", 0, "in-flight requests per shard before the router sheds with 503 (0 = default)")
		mode        = flag.String("mode", "auto", "execution substrate: sim, direct, or auto")
		routing     = flag.String("routing", "ecube", "default compare-split routing policy: ecube or multipath (per-request \"routing\" overrides)")
		oracle      = flag.Int("oracle-sample", 0, "cross-check 1 in N direct results on the simulator oracle (0 = off)")
		traceBuf    = flag.Int("trace-buf", 1<<16, "machine events kept for /v1/trace (0 disables tracing)")
		traceSample = flag.Int("trace-sample", 1, "record 1 of every N machine events")
		chaos       = flag.Bool("chaos", false, "enable the /v1/chaos fault-injection endpoints (live-fault drills)")
		demo        = flag.Bool("demo", false, "run the offline batch-throughput demo and exit")
		requests    = flag.Int("requests", 256, "demo: number of requests")
		m           = flag.Int("m", 4000, "demo: keys per request")
		seed        = flag.Uint64("seed", 1, "demo: workload seed")
	)
	flag.Parse()

	execMode, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}
	routePolicy, err := parseRouting(*routing)
	if err != nil {
		fatal(err)
	}
	ecfg := hypersort.EngineConfig{
		PoolSize:       *pool,
		BatchWorkers:   *workers,
		AdmissionQueue: *admission,
		Mode:           execMode,
		OracleSample:   *oracle,
	}
	switch *clusterMode {
	case "", "proxy", "shard":
	default:
		fatal(fmt.Errorf("unknown -cluster-mode %q (want shard, proxy, or empty)", *clusterMode))
	}
	if *clusterMode != "" && *demo {
		fatal(errors.New("-demo measures the in-process amortization story; drop -cluster-mode"))
	}
	// The ring stays attached for the process lifetime: bounded memory,
	// one atomic claim per event, and /v1/trace exports the most recent
	// window on demand. A proxy runs no engine, so it has no machine
	// events to keep.
	var ring *trace.Ring
	if *traceBuf > 0 && *clusterMode != "proxy" {
		ring = trace.NewRing(*traceBuf, *traceSample)
		ecfg.Trace = ring.Record
	}
	if *clusterMode == "shard" {
		if err := runShard(*addr, ecfg); err != nil {
			fatal(err)
		}
		return
	}

	// The backend behind the HTTP handler set: one engine, or the
	// multi-process front proxy (-cluster-mode=proxy). Both are a
	// *hypersort.Engine, so the handler set is identical.
	var eng *hypersort.Engine
	if *clusterMode == "proxy" {
		addrs := splitAddrs(*shardAddrs)
		if len(addrs) == 0 {
			fatal(errors.New("-cluster-mode=proxy requires -shard-addrs"))
		}
		eng = hypersort.NewRemoteCluster(hypersort.ClusterConfig{
			Replicas:       *replicas,
			SpillHighWater: *spillHW,
			ShedLimit:      *shedLimit,
			BatchWorkers:   *workers,
			AdmissionQueue: *admission,
		}, addrs)
	} else {
		eng = hypersort.NewEngine(ecfg)
	}
	if *demo {
		defer eng.Close()
		runDemo(eng, *requests, *m, *seed)
		return
	}

	// Graceful shutdown: SIGINT/SIGTERM stops accepting, drains in-flight
	// requests, then closes the backend: a proxy's shard connections. A
	// single engine holds nothing to release.
	srv := &http.Server{Handler: newMux(eng, ring, *chaos, routePolicy)}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("serve: listening on %s (cluster-mode=%q pool=%d workers=%d mode=%s routing=%s trace-buf=%d)\n", lis.Addr(), *clusterMode, *pool, *workers, execMode, routePolicy, *traceBuf)
	if err := serveUntil(srv, lis, done, 10*time.Second, eng.Close); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	fmt.Println("serve: drained")
}

// serveUntil serves srv on lis until sig delivers, drains in-flight
// requests (bounded by the drain timeout), and only THEN closes the
// backend. The ordering is the point: http.Server's ListenAndServe
// returns the moment Shutdown begins, so closing the backend right
// after it — the old shape of main — raced backend teardown against
// handlers still executing requests. A regression test pins the order.
func serveUntil(srv *http.Server, lis net.Listener, sig <-chan os.Signal, drain time.Duration, closeBackend func()) error {
	shutdownErr := make(chan error, 1)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	if err := srv.Serve(lis); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Shutdown returns only after every in-flight handler finished (or
	// the drain deadline passed); the backend must outlive them.
	err := <-shutdownErr
	closeBackend()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// runShard serves one engine over the binary wire protocol — the
// -cluster-mode=shard role. The engine flags mean exactly what they
// mean in single-engine HTTP mode; only the front door changes. The
// listen line prints the RESOLVED address so orchestration (and the CI
// smoke leg) can start shards on ":0" and scrape the ports.
func runShard(addr string, ecfg hypersort.EngineConfig) error {
	eng := engine.NewOpts(ecfg.PoolSize, ecfg.BatchWorkers, engine.BatchOptions{QueueDepth: ecfg.AdmissionQueue})
	eng.SetMode(ecfg.Mode)
	eng.SetOracleSample(ecfg.OracleSample)
	if ecfg.Trace != nil {
		eng.SetTrace(machine.TraceFunc(ecfg.Trace))
	}
	eng.Instrument(obs.Default())
	srv := transport.NewServer(eng, transport.ServerOptions{QueueWait: obs.QueueWaitHistogram(obs.Default())})

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shutdownErr := make(chan error, 1)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	fmt.Printf("serve: shard listening on %s (wire protocol v%d)\n", lis.Addr(), transport.Version)
	if err := srv.Serve(lis); !errors.Is(err, net.ErrClosed) {
		return err
	}
	// Return only after in-flight wire requests finished.
	if err := <-shutdownErr; err != nil {
		fmt.Fprintln(os.Stderr, "serve: shard drain:", err)
	}
	fmt.Println("serve: shard drained")
	return nil
}

// splitAddrs parses the -shard-addrs list, dropping empty entries.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// runDemo measures the engine's amortization win on synthetic traffic:
// R requests round-robined over a handful of faulty configurations,
// served fresh (New per call: plan search + machine build every time)
// versus through the warm engine (SortBatch over cached plans and
// pooled machines).
func runDemo(eng *hypersort.Engine, requests, m int, seed uint64) {
	configs := []hypersort.Config{
		{Dim: 6, Faults: []hypersort.NodeID{3, 17, 40}},
		{Dim: 7, Faults: []hypersort.NodeID{5, 29, 77, 101}},
		{Dim: 8, Faults: []hypersort.NodeID{1, 64, 130, 200, 255, 17, 90}},
		{Dim: 6, Faults: []hypersort.NodeID{0, 21, 42, 63}, Model: hypersort.Total},
	}
	rng := xrand.New(seed)
	reqs := make([]hypersort.Request, requests)
	for i := range reqs {
		reqs[i] = hypersort.Request{
			Config: configs[i%len(configs)],
			Op:     hypersort.OpSort,
			Keys:   workload.MustGenerate(workload.Uniform, m, rng),
		}
	}
	fmt.Printf("demo: %d requests x %d keys over %d configurations\n", requests, m, len(configs))

	start := time.Now()
	for i, r := range reqs {
		s, err := hypersort.New(r.Config)
		if err != nil {
			fatal(err)
		}
		if _, _, err := s.Sort(r.Keys); err != nil {
			fatal(fmt.Errorf("request %d: %w", i, err))
		}
	}
	fresh := time.Since(start)
	fmt.Printf("fresh per-call (plan search + machine build every request): %v  (%.1f req/s)\n",
		fresh.Round(time.Millisecond), float64(requests)/fresh.Seconds())

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	results := eng.SortBatch(reqs)
	warm := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	for i, res := range results {
		if res.Err != nil {
			fatal(fmt.Errorf("request %d: %w", i, res.Err))
		}
	}
	fmt.Printf("engine batch   (cached plans, pooled machines):             %v  (%.1f req/s)\n",
		warm.Round(time.Millisecond), float64(requests)/warm.Seconds())
	fmt.Printf("warm-path allocations: %.0f allocs/request (%.1f KiB/request)\n",
		float64(after.Mallocs-before.Mallocs)/float64(requests),
		float64(after.TotalAlloc-before.TotalAlloc)/float64(requests)/1024)
	fmt.Printf("speedup: %.2fx\n", fresh.Seconds()/warm.Seconds())
	mtr := eng.Metrics()
	fmt.Printf("engine metrics: %d requests, %d plan searches (%d cache hits), %d machines built + %d cloned\n",
		mtr.Requests, mtr.PlanMisses, mtr.PlanHits, mtr.MachinesBuilt, mtr.MachinesCloned)
	agg := hypersort.SumStats(results)
	fmt.Printf("simulated totals: critical-path makespan=%d comparisons=%d key-hops=%d\n",
		agg.Makespan, agg.Comparisons, agg.KeyHops)
}

// parseRouting maps the -routing flag to the default routing policy.
func parseRouting(s string) (hypersort.RoutingPolicy, error) {
	switch s {
	case "ecube":
		return hypersort.RouteECube, nil
	case "multipath":
		return hypersort.RouteMultipath, nil
	}
	return hypersort.RouteECube, fmt.Errorf("serve: unknown -routing %q (want ecube or multipath)", s)
}

// parseMode maps the -mode flag to an execution substrate.
func parseMode(s string) (hypersort.ExecMode, error) {
	switch s {
	case "sim":
		return hypersort.ModeSim, nil
	case "direct":
		return hypersort.ModeDirect, nil
	case "auto":
		return hypersort.ModeAuto, nil
	}
	return hypersort.ModeSim, fmt.Errorf("serve: unknown -mode %q (want sim, direct, or auto)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
