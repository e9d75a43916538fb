package cluster

// The router dispatches to shards through the Backend interface so the
// same ring, spill, and shed machinery drives both shapes: shard
// processes behind the wire protocol, which serve — a *transport.Client
// is a Backend as it stands, one per shard process — and in-process
// engine shards (localShard, this file), which the tests and benchmarks
// use to exercise the router without sockets. The routing layer is
// deliberately ignorant of which one it holds.

import (
	"context"

	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
)

// Backend is one shard as the router sees it: the engine request
// surface plus the health and load signals routing decisions consume.
type Backend interface {
	// Do executes one request; the router has already admitted it.
	Do(ctx context.Context, req engine.Request) engine.Result
	InjectFault(cfg engine.Config, injs ...machine.Injection) error
	DisarmFaults(cfg engine.Config) error
	Metrics() engine.Metrics
	// Healthy reports whether the shard is currently reachable.
	// In-process shards are always healthy; remote shards flip on
	// transport errors and back on successful reprobe.
	Healthy() bool
	// Load is the shard's own in-flight gauge, or -1 when the backend
	// has no view beyond the router's local accounting (in-process
	// shards). For remote shards this is the figure fed back on the
	// shard's most recent response — it sees load from OTHER proxies
	// too, which the router's local atomic cannot.
	Load() int64
	// QueueWaitNs is the shard's reported median queue wait (0 when
	// unknown) — the Retry-After signal.
	QueueWaitNs() int64
	// Instrument attaches observability to the backend (engine bundles
	// for local shards, transport bundles for remote ones).
	Instrument(r *obs.Registry)
	Close()
}

// localShard adapts one in-process engine to the Backend interface.
type localShard struct {
	eng *engine.Engine
}

// Do serves req on the shard engine's one route for it.
func (b *localShard) Do(ctx context.Context, req engine.Request) engine.Result {
	return b.eng.DoContext(ctx, req)
}

func (b *localShard) InjectFault(cfg engine.Config, injs ...machine.Injection) error {
	return b.eng.InjectFault(cfg, injs...)
}

func (b *localShard) DisarmFaults(cfg engine.Config) error { return b.eng.DisarmFaults(cfg) }
func (b *localShard) Metrics() engine.Metrics              { return b.eng.Metrics() }
func (b *localShard) Healthy() bool                        { return true }
func (b *localShard) Load() int64                          { return -1 }
func (b *localShard) QueueWaitNs() int64                   { return 0 }
func (b *localShard) Instrument(r *obs.Registry)           { b.eng.Instrument(r) }
func (b *localShard) Close()                               {}
