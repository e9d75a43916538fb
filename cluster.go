package hypersort

import (
	"hypersort/internal/cluster"
	"hypersort/internal/engine"
	"hypersort/internal/obs"
	"hypersort/internal/transport"
)

// ClusterConfig tunes the router NewRemoteCluster puts in front of the
// shard processes. The zero value selects sensible defaults: one
// replica, spill at 16 in-flight requests, shed at the admission bound.
// Each shard process configures its own engine from its own flags.
type ClusterConfig struct {
	// Replicas is how many replica shards a hot plan key may spill to
	// when its home shard crosses the spill high-water mark. 0 disables
	// spill; values < 0 select the default (1). Clamped to the shard
	// count minus one.
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
	// BatchWorkers bounds how many requests SortBatch routes
	// concurrently. Values < 1 mean GOMAXPROCS.
	BatchWorkers int
	// AdmissionQueue is the shards' admission bound, read only to
	// default ShedLimit.
	AdmissionQueue int
}

// ErrClusterSaturated is found (via errors.Is) in a Result.Err or Sort
// error when the router shed the request: its home shard and every
// replica candidate were at the shed limit, so the request was refused
// before reaching any shard. It always wraps ErrAdmissionRejected, so
// existing backpressure handling (503 + Retry-After in cmd/serve)
// applies unchanged.
var ErrClusterSaturated = cluster.ErrSaturated

// ClusterMetrics snapshots the router's lifetime counters: its
// request/spill/shed/reroute totals, the engine counters summed across
// shards, and each shard's own engine counters.
type ClusterMetrics = cluster.Metrics

// NewRemoteCluster builds an Engine that serves every request through
// shard PROCESSES (started with `serve -cluster-mode=shard`), one per
// address, reached over the pipelined binary wire protocol. A
// consistent-hash ring over shard indices routes each configuration to
// its home shard, so a proxy fleet sharing one ordered address list
// routes every key the same way. Spill and shed consult the live
// per-shard in-flight gauge fed back on every response, and a dead
// shard (connection refused, broken mid-call, timed out) is marked
// unhealthy, its keys re-routed to ring successors, and reprobed until
// it returns. Like NewEngine it registers its observability bundles —
// the router's spill/shed counters and per-shard series — in the
// process-wide metrics registry.
func NewRemoteCluster(cfg ClusterConfig, addrs []string) *Engine {
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
	return &Engine{cl: c}
}
