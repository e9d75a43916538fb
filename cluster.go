package hypersort

import (
	"context"

	"hypersort/internal/cluster"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/transport"
)

// ClusterConfig tunes a Cluster: the shard topology and routing
// thresholds, plus the per-shard engine knobs (each shard is one full
// Engine — its own plan cache and machine pools — so the
// EngineConfig-shaped fields apply to every shard independently). The
// zero value selects sensible defaults: GOMAXPROCS shards, one replica,
// spill at 16 in-flight requests, shed at the admission bound.
type ClusterConfig struct {
	// Shards is the number of independent engine shards behind the
	// router. Values < 1 mean GOMAXPROCS.
	Shards int
	// Replicas is how many replica shards a hot plan key may spill to
	// when its home shard crosses the spill high-water mark. 0 disables
	// spill; values < 0 select the default (1). Clamped to Shards-1.
	Replicas int
	// SpillHighWater is the in-flight request count on a key's home
	// shard above which the router considers a replica. Values < 1
	// select the default (16).
	SpillHighWater int
	// ShedLimit is the per-shard in-flight count at which a shard stops
	// accepting routed traffic; when the home shard and every replica
	// reach it the request is refused with ErrClusterSaturated (which
	// wraps ErrAdmissionRejected — the same 503 contract). Values < 1
	// select the default (AdmissionQueue, else 256).
	ShedLimit int

	// PoolSize, BatchWorkers, Trace, AdmissionQueue, Mode, and
	// OracleSample mean exactly what they mean on EngineConfig, applied
	// to each shard.
	PoolSize       int
	BatchWorkers   int
	Trace          func(TraceEvent)
	AdmissionQueue int
	Mode           ExecMode
	OracleSample   int
}

// ErrClusterSaturated is found (via errors.Is) in a Result.Err or Sort
// error when the cluster router shed the request: its home shard and
// every replica candidate were at the shed limit, so the request was
// refused before reaching any shard. It always wraps
// ErrAdmissionRejected, so existing backpressure handling (503 +
// Retry-After in cmd/serve) applies unchanged.
var ErrClusterSaturated = cluster.ErrSaturated

// ClusterMetrics snapshots a cluster's lifetime counters: the router's
// request/spill/shed totals, the engine counters summed across shards,
// and each shard's own engine counters.
type ClusterMetrics = cluster.Metrics

// Cluster is N independent Engines behind a consistent-hash router —
// the paper's working-subcube partition applied to the serving stack
// itself. Same-configuration traffic keeps landing on one shard; a hot
// configuration spills to replica shards when its home saturates; and
// when every eligible shard is saturated the router sheds the request
// with ErrClusterSaturated before it reaches any shard. All methods are
// safe for concurrent use.
type Cluster struct {
	c *cluster.Cluster
}

// NewCluster builds a cluster. Like NewEngine it performs no planning
// up front, and it registers its observability bundles — the router's
// spill/shed counters and per-shard series, plus the shared engine
// bundles — in the process-wide metrics registry.
func NewCluster(cfg ClusterConfig) *Cluster {
	opts := cluster.Options{
		Shards:         cfg.Shards,
		Replicas:       cfg.Replicas,
		SpillHighWater: cfg.SpillHighWater,
		ShedLimit:      cfg.ShedLimit,
		PoolSize:       cfg.PoolSize,
		Workers:        cfg.BatchWorkers,
		Batch:          engine.BatchOptions{QueueDepth: cfg.AdmissionQueue},
		Mode:           cfg.Mode,
		OracleSample:   cfg.OracleSample,
	}
	if cfg.Trace != nil {
		opts.Trace = machine.TraceFunc(cfg.Trace)
	}
	c := cluster.New(opts)
	c.Instrument(obs.Default())
	return &Cluster{c: c}
}

// NewRemoteCluster builds a cluster whose shards are separate PROCESSES
// (started with `serve -cluster-mode=shard`), one per address, reached
// over the pipelined binary wire protocol. Routing is identical to the
// in-process cluster — the consistent-hash ring hashes shard indices,
// so a proxy fleet sharing one ordered address list routes every key
// the same way — with two multi-process additions: spill and shed
// consult the live per-shard in-flight gauge fed back on every
// response, and a dead shard (connection refused, broken mid-call,
// timed out) is marked unhealthy, its keys re-routed to ring
// successors, and reprobed until it returns. The per-shard engine
// fields of cfg (PoolSize, Mode, ...) are ignored here: each shard
// process configures its own engine from its own flags.
func NewRemoteCluster(cfg ClusterConfig, addrs []string) *Cluster {
	opts := cluster.Options{
		Replicas:       cfg.Replicas,
		SpillHighWater: cfg.SpillHighWater,
		ShedLimit:      cfg.ShedLimit,
		Workers:        cfg.BatchWorkers,
		Batch:          engine.BatchOptions{QueueDepth: cfg.AdmissionQueue},
	}
	backends := make([]cluster.Backend, len(addrs))
	for i, addr := range addrs {
		backends[i] = cluster.NewRemoteShard(transport.NewClient(addr, transport.ClientOptions{}))
	}
	c := cluster.NewWithBackends(opts, backends)
	c.Instrument(obs.Default())
	return &Cluster{c: c}
}

// QueueWaitHint is the worst median queue wait any shard reported over
// the wire, in nanoseconds — the Retry-After signal for proxy mode.
// Always 0 for in-process clusters (their queue wait is observed in the
// local histogram instead).
func (c *Cluster) QueueWaitHint() int64 { return c.c.QueueWaitHint() }

// HealthyShards counts shards currently reachable (always NumShards for
// in-process clusters).
func (c *Cluster) HealthyShards() int { return c.c.HealthyShards() }

// NumShards returns the number of engine shards behind the router.
func (c *Cluster) NumShards() int { return c.c.NumShards() }

// Close shuts down every shard engine; see Engine.Close for the
// semantics (idempotent, a resource release rather than a poison pill).
func (c *Cluster) Close() { c.c.Close() }

// Metrics returns a snapshot of the cluster's lifetime counters.
func (c *Cluster) Metrics() ClusterMetrics { return c.c.Metrics() }

// ShardFor returns the shard ids eligible to serve cfg: its home shard
// first, then its replica candidates in ring order. Deterministic for a
// given cluster shape — useful for tests and capacity reasoning.
func (c *Cluster) ShardFor(cfg Config) ([]int, error) {
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return nil, err
	}
	return c.c.Candidates(ecfg), nil
}

// Sort sorts keys ascending through the cluster router; see Engine.Sort.
func (c *Cluster) Sort(cfg Config, keys []Key) ([]Key, Stats, error) {
	return c.SortContext(context.Background(), cfg, keys)
}

// SortContext is Sort with deadline and cancellation awareness; see
// Engine.SortContext.
func (c *Cluster) SortContext(ctx context.Context, cfg Config, keys []Key) ([]Key, Stats, error) {
	res := c.doCtx(ctx, Request{Config: cfg, Op: OpSort, Keys: keys})
	return res.Keys, res.Stats, res.Err
}

// KthSmallest returns the k-th smallest key (1-based) via the cluster.
func (c *Cluster) KthSmallest(cfg Config, keys []Key, k int) (Key, Stats, error) {
	res := c.doCtx(context.Background(), Request{Config: cfg, Op: OpKthSmallest, Keys: keys, K: k})
	return res.Value, res.Stats, res.Err
}

// Median returns the lower median of keys via the cluster.
func (c *Cluster) Median(cfg Config, keys []Key) (Key, Stats, error) {
	res := c.doCtx(context.Background(), Request{Config: cfg, Op: OpMedian, Keys: keys})
	return res.Value, res.Stats, res.Err
}

// TopK returns the k largest keys in ascending order via the cluster.
func (c *Cluster) TopK(cfg Config, keys []Key, k int) ([]Key, Stats, error) {
	res := c.doCtx(context.Background(), Request{Config: cfg, Op: OpTopK, Keys: keys, K: k})
	return res.Keys, res.Stats, res.Err
}

// SortBatch executes the requests concurrently, each routed through the
// cluster independently; see Engine.SortBatch for the isolation
// contract.
func (c *Cluster) SortBatch(reqs []Request) []Result {
	return c.SortBatchContext(context.Background(), reqs)
}

// SortBatchContext is SortBatch with a shared context.
func (c *Cluster) SortBatchContext(ctx context.Context, reqs []Request) []Result {
	inner := make([]engine.Request, len(reqs))
	errs := make([]error, len(reqs))
	for i, r := range reqs {
		ecfg, err := engineConfig(r.Config)
		if err != nil {
			errs[i] = err
			continue
		}
		inner[i] = engine.Request{Config: ecfg, Op: r.Op, Keys: r.Keys, K: r.K}
	}
	innerRes := c.c.BatchContext(ctx, inner)
	out := make([]Result, len(reqs))
	for i := range reqs {
		if errs[i] != nil {
			out[i] = Result{Err: errs[i]}
			continue
		}
		out[i] = Result{
			Keys:   innerRes[i].Keys,
			Value:  innerRes[i].Value,
			Stats:  statsOf(innerRes[i].Res),
			Direct: innerRes[i].Direct,
			Err:    innerRes[i].Err,
		}
	}
	return out
}

// InjectFault arms live fault injections against cfg on EVERY shard:
// the router may serve the configuration from its home shard or — under
// load — any replica, so a drill must cover them all. See
// Engine.InjectFault for the recovery contract.
func (c *Cluster) InjectFault(cfg Config, injs ...Injection) error {
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return err
	}
	return c.c.InjectFault(ecfg, injs...)
}

// DisarmFaults clears cfg's injection schedule on every shard.
func (c *Cluster) DisarmFaults(cfg Config) error {
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return err
	}
	return c.c.DisarmFaults(ecfg)
}

// doCtx runs one request through the cluster under ctx.
func (c *Cluster) doCtx(ctx context.Context, req Request) Result {
	ecfg, err := engineConfig(req.Config)
	if err != nil {
		return Result{Err: err}
	}
	res := c.c.DoContext(ctx, engine.Request{Config: ecfg, Op: req.Op, Keys: req.Keys, K: req.K})
	return Result{Keys: res.Keys, Value: res.Value, Stats: statsOf(res.Res), Direct: res.Direct, Err: res.Err}
}
