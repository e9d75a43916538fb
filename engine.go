package hypersort

import (
	"context"
	"errors"
	"fmt"

	"hypersort/internal/cluster"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
)

// EngineConfig tunes an Engine's resource bounds and admission. The
// zero value selects sensible defaults (GOMAXPROCS for both resource
// bounds, an admission bound of 256 in-flight requests per
// configuration).
type EngineConfig struct {
	// PoolSize bounds the simulated machines kept per configuration.
	// Each concurrent request on one configuration needs its own
	// machine; beyond PoolSize in-flight requests for a configuration,
	// further requests wait for a machine to free up. A machine costs
	// 2^Dim node states, so size the pool by memory and host
	// parallelism, not by request count. Values < 1 mean GOMAXPROCS.
	PoolSize int
	// BatchWorkers bounds how many requests SortBatch executes
	// concurrently across all configurations. Values < 1 mean
	// GOMAXPROCS.
	BatchWorkers int
	// Trace, if non-nil, receives every machine event (send, receive,
	// compute) of every request the engine serves. Unlike Sorter's
	// per-run Config.Trace — which the engine rejects — this hook is
	// engine-wide: pooled machines share it, so events from concurrent
	// requests interleave. It is called from many goroutines at once and
	// must be safe for concurrent use; a bounded sampling sink (the
	// internal ring tracer behind cmd/serve's /v1/trace) is the intended
	// consumer. Leave nil for zero tracing overhead.
	Trace func(TraceEvent)

	// AdmissionQueue bounds how many requests may be in flight per
	// configuration; beyond it requests fail fast with
	// ErrAdmissionRejected. Values < 1 select the default (256).
	AdmissionQueue int

	// Mode selects the execution substrate. ModeSim (the default) runs
	// every request on the simulated machine with measured Stats.
	// ModeDirect serves eligible sorts (full-block protocol, no
	// distribution accounting) at host speed with analytically predicted
	// Stats — bit-identical sorted output, no simulated machinery — and
	// falls back to the simulator for everything else, including any
	// configuration with chaos injections armed. ModeAuto is ModeDirect
	// unless Trace is set (direct runs emit no machine events).
	Mode ExecMode
	// OracleSample, when > 0 with direct execution active, re-runs one
	// in every OracleSample direct results on the simulator oracle and
	// cross-checks the sorted output (EngineMetrics.OracleRuns /
	// ParityBreaks; the sampled request waits for the simulated run).
	OracleSample int
}

// ExecMode selects an Engine's execution substrate; see EngineConfig.Mode.
type ExecMode = engine.Mode

// Execution substrates: the simulator (measured Stats), the direct
// host-speed path (predicted Stats), or automatic selection.
const (
	ModeSim    = engine.ModeSim
	ModeDirect = engine.ModeDirect
	ModeAuto   = engine.ModeAuto
)

// ErrAdmissionRejected is found (via errors.Is) in a Result.Err or Sort
// error when the request's configuration already had the engine's
// admission bound of requests in flight. It is the backpressure signal: shed load or
// retry with backoff. cmd/serve maps it to HTTP 503.
var ErrAdmissionRejected = engine.ErrAdmissionRejected

// ErrUnrecoverable is found (via errors.Is) in a Result.Err or Sort
// error when a live fault injected mid-run left the configuration beyond
// repair: the degraded fault set no longer admits a single-fault
// partition, so the engine failed fast instead of hanging or
// mis-sorting. Within the paper's guarantee band (at most Dim-1
// processor faults in total) it is never reported.
var ErrUnrecoverable = engine.ErrUnrecoverable

// Injection is one scheduled live fault for InjectFault: a processor or
// link killed at a virtual time (or on the victim's Nth send) while sort
// kernels are running. See the field docs for trigger semantics.
type Injection = machine.Injection

// InjectionKind selects what an Injection destroys.
type InjectionKind = machine.InjectionKind

// Injection kinds: kill a processor, or sever one hypercube edge.
const (
	KillNode = machine.KillNode
	KillLink = machine.KillLink
)

// ProcessorDiedError reports (via errors.As) a processor killed by a
// fired injection; recovery normally absorbs it, so callers see it only
// when replanning was impossible or injections fired beyond repair.
type ProcessorDiedError = machine.ProcessorDiedError

// LinkDiedError is ProcessorDiedError's link-casualty counterpart.
type LinkDiedError = machine.LinkDiedError

// Engine is a concurrent, reusable front end to the fault-tolerant
// sorter, built for serving many requests against a recurring set of
// configurations. Unlike Sorter it is safe for arbitrary concurrent use:
// it caches partition plans by canonical configuration (so repeated
// configurations skip the O(rN) cutting-dimension search entirely),
// pools independent simulated machines per configuration (so concurrent
// requests run in parallel instead of serializing or racing), and
// bounds each configuration's in-flight requests (see
// EngineConfig.AdmissionQueue).
//
// The same facade fronts the consistent-hash router over shard
// processes (NewRemoteCluster): every request method behaves the same,
// and only the accessors Metrics, ClusterMetrics, QueueWaitHint and
// Partition tell the two backends apart.
//
// Limitations: Config.Trace is rejected — a per-run event hook cannot be
// cached or pooled; use a dedicated Sorter to trace a run. Plan-search
// failures (inseparable fault sets) are cached like successes, so
// retrying a doomed configuration is cheap.
type Engine struct {
	eng *engine.Engine   // the in-process engine; nil on a proxy
	cl  *cluster.Cluster // the router over shard processes; nil on an engine
}

// backend is what every request method serves through: the in-process
// engine or the router over shard processes.
type backend interface {
	DoContext(ctx context.Context, req engine.Request) engine.Result
	BatchContext(ctx context.Context, reqs []engine.Request) []engine.Result
	InjectFault(cfg engine.Config, injs ...machine.Injection) error
	DisarmFaults(cfg engine.Config) error
	Close()
}

// backend returns whichever of the two backends e holds.
func (e *Engine) backend() backend {
	if e.cl != nil {
		return e.cl
	}
	return e.eng
}

// NewEngine builds an engine. It performs no planning up front; plans
// and machines materialize lazily as configurations are first used.
//
// Every engine registers its observability bundles in the process-wide
// metrics registry (exposed by cmd/serve on GET /metrics): request
// latency, plan-cache and pool counters, per-run machine aggregates, and
// per-phase kernel breakdowns. The bundles are shared instruments — two
// engines in one process accumulate into the same series.
func NewEngine(cfg EngineConfig) *Engine {
	eng := engine.NewOpts(cfg.PoolSize, cfg.BatchWorkers, engine.BatchOptions{QueueDepth: cfg.AdmissionQueue})
	eng.Instrument(obs.Default())
	if cfg.Trace != nil {
		eng.SetTrace(machine.TraceFunc(cfg.Trace))
	}
	eng.SetMode(cfg.Mode)
	eng.SetOracleSample(cfg.OracleSample)
	return &Engine{eng: eng}
}

// Op selects what a batch Request computes.
type Op = engine.Op

// Batch operations: sort ascending, order statistics, or top-K.
const (
	OpSort        = engine.OpSort
	OpKthSmallest = engine.OpKthSmallest
	OpMedian      = engine.OpMedian
	OpTopK        = engine.OpTopK
)

// Request is one unit of batch work: a machine configuration, an
// operation, and its operands. Requests in one batch are independent and
// may freely mix configurations.
type Request struct {
	// Config is the machine configuration; Config.Trace must be nil.
	Config Config
	// Op selects the computation (default OpSort).
	Op Op
	// Keys is the input; it is not modified.
	Keys []Key
	// K is the 1-based rank for OpKthSmallest or the count for OpTopK.
	K int
}

// Result is one batch request's outcome. The payload field that matters
// follows the request's Op: Keys for OpSort and OpTopK, Value for
// OpKthSmallest and OpMedian. Err is per-request — see Stats for how to
// aggregate statistics over a batch.
//
// Direct reports which substrate served the request: false means a
// simulated machine measured Stats, true means the direct host-speed
// substrate sorted the keys and Stats is the analytic prediction (the
// §3 worst-case makespan and exact message/key/comparison counts; key
// hops are a lower bound under detour routing).
type Result struct {
	Keys   []Key
	Value  Key
	Stats  Stats
	Direct bool
	Err    error
}

// Close retires the persistent worker goroutines of the engine's pooled
// machines. Call it when done serving — typically on server shutdown,
// after in-flight requests have drained. The engine remains usable
// afterwards (machines respawn workers on demand), so Close is a
// resource release, not a poison pill; it is idempotent and safe to
// defer at construction time. On a proxy Close is final: it closes the
// connections to the shard processes, and later requests fail.
func (e *Engine) Close() { e.backend().Close() }

// EngineMetrics snapshots an engine's lifetime counters: requests
// served, plan-cache hits and misses, machines constructed (full builds
// versus pool-clone fast-paths), admission rejections and
// cancellations, and direct-substrate counts.
type EngineMetrics = engine.Metrics

// errProxyPartition is Partition's error on a proxy.
var errProxyPartition = errors.New("hypersort: Partition is not available on a proxy: plans live in the shard processes")

// Metrics returns a snapshot of the engine's lifetime counters; on a
// proxy, the counters of every shard process summed.
func (e *Engine) Metrics() EngineMetrics {
	if e.cl != nil {
		return e.cl.Metrics().Engine
	}
	return e.eng.Metrics()
}

// ClusterMetrics returns the router's counters and the per-shard split;
// ok is false on a single engine, which has no router.
func (e *Engine) ClusterMetrics() (m ClusterMetrics, ok bool) {
	if e.cl == nil {
		return ClusterMetrics{}, false
	}
	return e.cl.Metrics(), true
}

// QueueWaitHint is the worst median queue wait any shard process
// reported over the wire, in nanoseconds — the Retry-After signal for a
// proxy, whose own queue-wait histogram stays empty because it runs no
// engine. Always 0 on a single engine, which observes its queue wait in
// the local histogram instead.
func (e *Engine) QueueWaitHint() int64 {
	if e.cl == nil {
		return 0
	}
	return e.cl.QueueWaitHint()
}

// Partition returns the partition decisions for cfg from the engine's
// plan cache: the first call for a configuration runs the
// cutting-dimension search, every later call is a lookup. It is the
// cheap way to inspect (or pre-warm) a configuration without building a
// Sorter. On a proxy it always fails: the plans live in the shard
// processes, and the wire protocol does not carry them.
func (e *Engine) Partition(cfg Config) (Partition, error) {
	if e.cl != nil {
		return Partition{}, errProxyPartition
	}
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return Partition{}, err
	}
	plan, err := e.eng.Plan(ecfg)
	if err != nil {
		return Partition{}, err
	}
	return partitionInfo(plan), nil
}

// InjectFault arms live fault injections against cfg's machine pool: the
// scheduled casualties strike runs of that configuration mid-kernel. The
// engine then recovers on its own — online diagnosis converges on the
// new fault set, the request replans through the plan cache, and the
// keys are redistributed over the surviving processors — so a Sort
// overlapping the casualty still returns the correctly sorted keys
// (or ErrUnrecoverable when the degraded machine admits no plan).
// Recovery activity is visible in Metrics and on /metrics
// (hypersort_engine_replans_total, hypersort_engine_recovery_latency_ns,
// ...). On a proxy it arms EVERY shard process: the router may serve the
// configuration from its home shard or, under load, any replica, so a
// drill must cover them all. Chaos drills and tests are the intended
// callers.
func (e *Engine) InjectFault(cfg Config, injs ...Injection) error {
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return err
	}
	return e.backend().InjectFault(ecfg, injs...)
}

// DisarmFaults clears cfg's injection schedule, fired casualties
// included (on every shard process, on a proxy): the pool serves the
// configuration at full health again. Call only with no request in
// flight on the configuration.
func (e *Engine) DisarmFaults(cfg Config) error {
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return err
	}
	return e.backend().DisarmFaults(ecfg)
}

// Sort sorts keys ascending on the configured faulty hypercube, reusing
// the engine's cached plan and pooled machines for cfg. Safe for
// concurrent use.
func (e *Engine) Sort(cfg Config, keys []Key) ([]Key, Stats, error) {
	return e.SortContext(context.Background(), cfg, keys)
}

// SortContext is Sort with deadline and cancellation awareness: a
// request whose context is done on arrival or before it acquires a
// pooled machine returns promptly with the context's error (check with errors.Is). A
// context that expires after the simulated run started does not abort
// it.
func (e *Engine) SortContext(ctx context.Context, cfg Config, keys []Key) ([]Key, Stats, error) {
	res := e.doCtx(ctx, Request{Config: cfg, Op: OpSort, Keys: keys})
	return res.Keys, res.Stats, res.Err
}

// KthSmallest returns the k-th smallest key (1-based) via the engine.
func (e *Engine) KthSmallest(cfg Config, keys []Key, k int) (Key, Stats, error) {
	res := e.doCtx(context.Background(), Request{Config: cfg, Op: OpKthSmallest, Keys: keys, K: k})
	return res.Value, res.Stats, res.Err
}

// Median returns the lower median of keys via the engine.
func (e *Engine) Median(cfg Config, keys []Key) (Key, Stats, error) {
	res := e.doCtx(context.Background(), Request{Config: cfg, Op: OpMedian, Keys: keys})
	return res.Value, res.Stats, res.Err
}

// TopK returns the k largest keys in ascending order via the engine.
func (e *Engine) TopK(cfg Config, keys []Key, k int) ([]Key, Stats, error) {
	res := e.doCtx(context.Background(), Request{Config: cfg, Op: OpTopK, Keys: keys, K: k})
	return res.Keys, res.Stats, res.Err
}

// SortBatch executes the requests concurrently across the engine's
// machine pools and returns one Result per request, in request order.
// Errors are isolated: a request with a bad configuration, an impossible
// fault set, or invalid operands fails alone — every valid request in
// the batch still returns its result.
func (e *Engine) SortBatch(reqs []Request) []Result {
	return e.SortBatchContext(context.Background(), reqs)
}

// SortBatchContext is SortBatch with a shared context: requests still
// waiting for execution capacity when ctx is done return its error in
// their Result; requests already running complete normally. A request
// whose Config the engine rejects fails without being dispatched.
func (e *Engine) SortBatchContext(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	inner := make([]engine.Request, 0, len(reqs))
	for i, r := range reqs {
		ecfg, err := engineConfig(r.Config)
		if err != nil {
			out[i].Err = err
			continue
		}
		inner = append(inner, engine.Request{Config: ecfg, Op: r.Op, Keys: r.Keys, K: r.K})
	}
	// The dispatched results fill, in order, the slots conversion left
	// without an error.
	res := e.backend().BatchContext(ctx, inner)
	for i := range out {
		if out[i].Err == nil {
			out[i], res = resultOf(res[0]), res[1:]
		}
	}
	return out
}

// doCtx runs one request through the backend under ctx.
func (e *Engine) doCtx(ctx context.Context, req Request) Result {
	ecfg, err := engineConfig(req.Config)
	if err != nil {
		return Result{Err: err}
	}
	return resultOf(e.backend().DoContext(ctx, engine.Request{Config: ecfg, Op: req.Op, Keys: req.Keys, K: req.K}))
}

// resultOf converts an internal result to the public form.
func resultOf(r engine.Result) Result {
	return Result{Keys: r.Keys, Value: r.Value, Stats: statsOf(r.Res), Direct: r.Direct, Err: r.Err}
}

// engineConfig converts the public Config, rejecting what an engine
// cannot serve.
func engineConfig(cfg Config) (engine.Config, error) {
	if cfg.Trace != nil {
		return engine.Config{}, fmt.Errorf("hypersort: Engine does not support Config.Trace; use a Sorter to trace a run")
	}
	return engine.Config{
		Dim:                 cfg.Dim,
		Faults:              cfg.Faults,
		LinkFaults:          cfg.LinkFaults,
		Model:               cfg.Model,
		Cost:                cfg.Cost,
		Protocol:            cfg.Protocol,
		AccountDistribution: cfg.AccountDistribution,
		Routing:             cfg.Routing,
	}, nil
}

// SumStats aggregates a batch's statistics: work counters sum over the
// successful results, and Makespan is the maximum — the batch's
// simulated critical path, since each request ran on an independent
// machine in parallel. Failed results contribute nothing.
func SumStats(results []Result) Stats {
	var agg Stats
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		agg.Messages += r.Stats.Messages
		agg.KeysSent += r.Stats.KeysSent
		agg.KeyHops += r.Stats.KeyHops
		agg.Comparisons += r.Stats.Comparisons
		if r.Stats.Makespan > agg.Makespan {
			agg.Makespan = r.Stats.Makespan
		}
	}
	return agg
}
