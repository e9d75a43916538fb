package cluster

// RemoteShard adapts one shard PROCESS — reached through the transport
// client — to the same Backend interface localShard satisfies, which is
// the whole point of the multi-process mode: the ring, the spill/shed
// thresholds, and the facade are reused verbatim, and only the shard
// boundary moves from a method call to a pipelined socket.

import (
	"context"

	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/transport"
)

// RemoteShard is one shard process as a router backend.
type RemoteShard struct {
	cl *transport.Client
}

// NewRemoteShard wraps an existing transport client as a backend.
func NewRemoteShard(cl *transport.Client) *RemoteShard { return &RemoteShard{cl: cl} }

// Addr returns the shard process address.
func (b *RemoteShard) Addr() string { return b.cl.Addr() }

// Do forwards one request over the wire; the shard process picks the
// request's route.
func (b *RemoteShard) Do(ctx context.Context, req engine.Request) engine.Result {
	return b.cl.Do(ctx, req)
}

// InjectFault arms chaos injections on the shard process for cfg.
func (b *RemoteShard) InjectFault(cfg engine.Config, injs ...machine.Injection) error {
	return b.cl.InjectFault(cfg, injs...)
}

// DisarmFaults clears cfg's injection schedule on the shard process.
func (b *RemoteShard) DisarmFaults(cfg engine.Config) error { return b.cl.DisarmFaults(cfg) }

// Metrics fetches the shard engine's counters over the wire; an
// unreachable shard contributes zeros.
func (b *RemoteShard) Metrics() engine.Metrics { return b.cl.Metrics() }

// Healthy reports the client's view of shard reachability: flipped
// false by any transport error, flipped back by the reprobe loop.
func (b *RemoteShard) Healthy() bool { return b.cl.Healthy() }

// Load is the shard's in-flight gauge from its most recent response —
// live feedback that also sees traffic from other proxies.
func (b *RemoteShard) Load() int64 { return b.cl.Load() }

// QueueWaitNs is the shard's reported median queue wait from its most
// recent response.
func (b *RemoteShard) QueueWaitNs() int64 { return b.cl.QueueWaitNs() }

// Instrument attaches the transport bundle (RTT, pipeline depth,
// unhealthy transitions) to the underlying client. Registration is
// idempotent, so all shards of one proxy share the same series.
func (b *RemoteShard) Instrument(r *obs.Registry) {
	tm := obs.NewTransportMetrics(r)
	b.cl.Instrument(tm.RTT, tm.PipelineDepth, tm.ShardUnhealthy)
}

// Close closes the transport client (the shard process itself is not
// ours to stop).
func (b *RemoteShard) Close() { b.cl.Close() }
