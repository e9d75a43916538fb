// Package cluster is the router in front of shard processes: N
// independent engines — each with its own plan cache and machine pools,
// each in its own process behind the wire protocol (RemoteShard) — and
// a front router that consistent-hashes requests by plan key, so
// traffic on one configuration keeps landing on one shard (one warm
// plan cache, one warm pool). hypersort.NewRemoteCluster and
// `serve -cluster-mode=proxy` build it with NewWithBackends.
//
// New builds the same router over in-process engine shards (localShard).
// No serving path uses that shape — one engine serves as fast (E27) —
// but it is the router's in-process test harness: the router tests, the
// root package's dead-on-arrival test and router throughput benchmark,
// and the request-ledger benchmark's cluster layer all drive it.
//
// The router is the cluster's whole control plane, and it is lock-free:
// an immutable hash ring, per-shard in-flight atomics, and three
// decisions per request.
//
//   - Route: hash the configuration's canonical fingerprint, find its
//     home shard on the ring. Same configuration, same shard — plan
//     caches never duplicate work in the steady state.
//   - Spill: when the home shard's in-flight count crosses the spill
//     high-water mark, the request may land on one of the key's R
//     replica shards instead (the ring successors of its home; least
//     loaded wins). Each replica warms its own cached plan on first
//     contact, so a hot configuration's capacity grows R+1 fold.
//   - Shed: when every eligible shard — home and all replicas — is at
//     the shed limit, the router refuses the request BEFORE it touches
//     any queue, wrapping engine.ErrAdmissionRejected so the HTTP layer
//     answers the same 503-with-Retry-After contract as per-shard
//     admission. This is the cluster-wide backpressure the per-shard
//     in-flight caps cannot provide on their own.
//
// After routing, the target shard serves the request exactly as a
// standalone engine would: direct-eligible sorts run inline on the
// direct substrate, everything else (simulated sorts, selection ops,
// armed-chaos configurations) on a leased machine.
package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/partition"
	"hypersort/internal/transport"
)

// ErrSaturated is found (via errors.Is) in a Result.Err when the router
// shed a request because its home shard and every replica candidate were
// at the shed limit. It always wraps engine.ErrAdmissionRejected, so
// callers that already map admission rejection to backpressure (503 +
// Retry-After in cmd/serve) need no new case.
var ErrSaturated = errors.New("cluster: all eligible shards saturated")

// DefaultSpillHighWater is the SpillHighWater Options selects when
// unset.
const DefaultSpillHighWater = 16

// Options configures a Cluster. The zero value selects sensible
// defaults: GOMAXPROCS shards, one replica, spill at
// DefaultSpillHighWater, shed at the engine's admission bound.
type Options struct {
	// Shards is the number of independent engine shards. Values < 1
	// select GOMAXPROCS — one shard per processor, the goroutine-domain
	// analogue of one subcube per working partition.
	Shards int
	// Replicas is how many replica shards a hot plan key may spill to
	// (its ring successors). 0 disables spill; values < 0 select the
	// default (1). Clamped to Shards-1.
	Replicas int
	// SpillHighWater is the in-flight request count on a key's home
	// shard above which the router considers spilling to a replica.
	// Values < 1 select DefaultSpillHighWater.
	SpillHighWater int
	// ShedLimit is the per-shard in-flight count at which a shard stops
	// being eligible; when home and all replicas reach it the request is
	// shed with ErrSaturated. Values < 1 select the shards' admission
	// bound (Batch.QueueDepth, else engine.DefaultQueueDepth). Always
	// normalized to exceed SpillHighWater, or spill could never precede
	// shed.
	ShedLimit int
	// VirtualNodes is the ring points per shard. Values < 1 select the
	// default (128), plenty for near-uniform spread at any realistic
	// shard count.
	VirtualNodes int

	// PoolSize and Workers bound each shard's machine pool and batch
	// concurrency (see engine.NewOpts); values < 1 mean GOMAXPROCS.
	PoolSize int
	Workers  int
	// Batch tunes each shard's admission bound.
	Batch engine.BatchOptions
	// Mode, OracleSample, and Trace are applied to every shard (see the
	// corresponding Engine setters).
	Mode         engine.Mode
	OracleSample int
	Trace        machine.TraceFunc
}

// shard is one backend plus the router-side load accounting for it.
type shard struct {
	id int
	be Backend
	// inflight counts requests dispatched to this shard and not yet
	// completed — the load signal spill and shed thresholds compare
	// against. Router-owned: the backend's own queue metrics stay
	// backend-internal.
	inflight atomic.Int64
}

// load is the figure spill and shed thresholds compare: the router's
// own in-flight count, raised to the backend's self-reported gauge when
// that is higher (a remote shard also sees load from other proxies).
func (s *shard) load() int64 {
	l := s.inflight.Load()
	if bl := s.be.Load(); bl > l {
		l = bl
	}
	return l
}

// routeScratch is the per-request routing workspace, pooled so the
// router allocates nothing in steady state.
type routeScratch struct {
	keyBuf []byte
	cands  []int
	walk   []int // full-ring successor walk, used only on unhealthy paths
}

// Cluster is N engine shards behind a consistent-hash router with
// replica spill and cluster-wide load shedding. All methods are safe
// for concurrent use.
type Cluster struct {
	shards   []*shard
	ring     *ring
	replicas int
	spillHW  int64
	shed     int64
	workers  int

	scratch sync.Pool // *routeScratch
	shedErr error     // prebuilt: contents are static per cluster
	downErr error     // prebuilt: every shard unhealthy

	requests atomic.Int64
	spills   atomic.Int64
	sheds    atomic.Int64
	reroutes atomic.Int64

	// cm is nil until Instrument; every consuming path guards on that.
	cm *obs.ClusterMetrics
}

// normalize fills opts' defaults for a cluster of `shards` shards.
func (opts *Options) normalize(shards int) {
	opts.Shards = shards
	if opts.Replicas < 0 {
		opts.Replicas = 1
	}
	if opts.Replicas > opts.Shards-1 {
		opts.Replicas = opts.Shards - 1
	}
	if opts.SpillHighWater < 1 {
		opts.SpillHighWater = DefaultSpillHighWater
	}
	if opts.ShedLimit < 1 {
		opts.ShedLimit = opts.Batch.QueueDepth
		if opts.ShedLimit < 1 {
			opts.ShedLimit = engine.DefaultQueueDepth
		}
	}
	if opts.ShedLimit <= opts.SpillHighWater {
		opts.ShedLimit = opts.SpillHighWater + 1
	}
	if opts.VirtualNodes < 1 {
		opts.VirtualNodes = 128
	}
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
}

// build assembles the router over an already-constructed backend set.
func build(opts Options, backends []Backend) *Cluster {
	opts.normalize(len(backends))
	c := &Cluster{
		ring:     newRing(opts.Shards, opts.VirtualNodes),
		replicas: opts.Replicas,
		spillHW:  int64(opts.SpillHighWater),
		shed:     int64(opts.ShedLimit),
		workers:  opts.Workers,
	}
	c.shedErr = fmt.Errorf("%w: %w (%d shards, %d replicas, shed limit %d in-flight)",
		ErrSaturated, engine.ErrAdmissionRejected, opts.Shards, opts.Replicas, opts.ShedLimit)
	c.downErr = fmt.Errorf("%w: %w (no healthy shards among %d)",
		ErrSaturated, engine.ErrAdmissionRejected, opts.Shards)
	for i, be := range backends {
		c.shards = append(c.shards, &shard{id: i, be: be})
	}
	return c
}

// New builds the router over in-process engine shards — the test
// harness described in the package doc. Like the engine it fronts, it
// performs no planning up front; each shard's plans and machines
// materialize as the router first sends it traffic.
func New(opts Options) *Cluster {
	if opts.Shards < 1 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	backends := make([]Backend, opts.Shards)
	for i := range backends {
		e := engine.NewOpts(opts.PoolSize, opts.Workers, opts.Batch)
		e.SetMode(opts.Mode)
		e.SetOracleSample(opts.OracleSample)
		if opts.Trace != nil {
			e.SetTrace(opts.Trace)
		}
		backends[i] = &localShard{eng: e}
	}
	return build(opts, backends)
}

// NewWithBackends builds a cluster over caller-constructed backends —
// the serving entry point (RemoteShard backends, one per shard process
// address) and the seam tests use to substitute failing backends. Shard
// IDs follow slice order, so the ring routes identically to an
// in-process cluster of the same size: the ring hashes shard INDICES,
// not addresses.
func NewWithBackends(opts Options, backends []Backend) *Cluster {
	return build(opts, backends)
}

// Instrument registers the cluster's observability bundles in r and
// attaches them: the router's spill/shed counters, the decision-latency
// histogram, one labelled request counter and in-flight gauge per
// shard, and every shard engine's own bundles (shared instruments —
// shards accumulate into one engine-level series set, while the
// per-shard split lives in the cluster families). Call once, before the
// cluster serves traffic.
func (c *Cluster) Instrument(r *obs.Registry) {
	c.cm = obs.NewClusterMetrics(r, len(c.shards))
	for _, s := range c.shards {
		s.be.Instrument(r)
	}
}

// Close shuts down every shard backend: pooled machine workers retire
// in-process; transport clients close in multi-process mode. Idempotent,
// like Engine.Close.
func (c *Cluster) Close() {
	for _, s := range c.shards {
		s.be.Close()
	}
}

// HealthyShards counts shards currently reporting healthy.
func (c *Cluster) HealthyShards() int {
	n := 0
	for _, s := range c.shards {
		if s.be.Healthy() {
			n++
		}
	}
	return n
}

// QueueWaitHint is the worst (maximum) median queue wait any shard
// reported, in nanoseconds — the proxy's Retry-After signal. Always 0
// for in-process clusters, whose queue wait is observed locally.
func (c *Cluster) QueueWaitHint() int64 {
	var hint int64
	for _, s := range c.shards {
		if w := s.be.QueueWaitNs(); w > hint {
			hint = w
		}
	}
	return hint
}

// hashConfig fingerprints cfg into the scratch buffer and hashes it.
// The fingerprint is partition.AppendKey's canonical encoding — the
// same bytes the shard engines intern as their plan-cache keys — so
// "same plan key" and "same shard" coincide by construction.
func hashConfig(sc *routeScratch, cfg engine.Config) uint64 {
	sc.keyBuf = partition.AppendKeyRouting(sc.keyBuf[:0], cfg.Dim, cfg.Faults, cfg.LinkFaults, int(cfg.Model), int(cfg.Routing))
	return fnv1a(sc.keyBuf)
}

// route picks the shard for cfg: home unless spilling, least-loaded
// candidate when spilling, nil plus the shed error when every candidate
// is saturated. spilled reports a non-home choice.
//
// Health enters before load does: when any of the key's home+replica
// candidates is unhealthy, the candidate window slides along the ring —
// the full successor order, unhealthy shards skipped, first R+1
// survivors kept. Keys homed on healthy shards route exactly as before
// (the fast path below never allocates or touches the full walk), keys
// homed on a dead shard land deterministically on its ring successor,
// and when every shard is down the request sheds with the same
// 503-shaped error contract as saturation.
func (c *Cluster) route(cfg engine.Config) (target *shard, spilled bool, err error) {
	var start time.Time
	if c.cm != nil {
		start = time.Now()
	}
	sc, _ := c.scratch.Get().(*routeScratch)
	if sc == nil {
		sc = &routeScratch{}
	}
	h := hashConfig(sc, cfg)
	cands := c.ring.successors(h, c.replicas+1, sc.cands[:0])
	for _, i := range cands {
		if !c.shards[i].be.Healthy() {
			cands = c.healthySuccessors(h, sc, cands)
			break
		}
	}
	if len(cands) == 0 {
		sc.cands = cands
		c.scratch.Put(sc)
		if c.cm != nil {
			c.cm.Decision.Observe(time.Since(start).Nanoseconds())
		}
		return nil, false, c.downErr
	}
	home := c.shards[cands[0]]
	target = home
	if load := home.load(); load >= c.spillHW {
		// Home is hot: consider the replica set, least loaded first.
		best, bestLoad := home, load
		for _, i := range cands[1:] {
			s := c.shards[i]
			if l := s.load(); l < bestLoad {
				best, bestLoad = s, l
			}
		}
		if bestLoad >= c.shed {
			// argmin load >= shed limit means EVERY candidate is at the
			// limit: cluster-wide backpressure, refused before any queue.
			sc.cands = cands
			c.scratch.Put(sc)
			if c.cm != nil {
				c.cm.Decision.Observe(time.Since(start).Nanoseconds())
			}
			return nil, false, c.shedErr
		}
		target, spilled = best, best != home
	}
	sc.cands = cands
	c.scratch.Put(sc)
	if c.cm != nil {
		c.cm.Decision.Observe(time.Since(start).Nanoseconds())
	}
	return target, spilled, nil
}

// healthySuccessors rebuilds the candidate window when some candidate
// is down: the key's full ring successor order filtered to healthy
// shards, truncated to the replica window. Empty when every shard is
// unhealthy.
func (c *Cluster) healthySuccessors(h uint64, sc *routeScratch, cands []int) []int {
	sc.walk = c.ring.successors(h, len(c.shards), sc.walk[:0])
	cands = cands[:0]
	for _, i := range sc.walk {
		if c.shards[i].be.Healthy() {
			cands = append(cands, i)
			if len(cands) == c.replicas+1 {
				break
			}
		}
	}
	return cands
}

// Candidates returns the shard ids eligible to serve cfg, home first,
// then its replica candidates in ring order. Pure — the same
// configuration always yields the same list on clusters of the same
// shape — which is what the spill-determinism tests pin.
func (c *Cluster) Candidates(cfg engine.Config) []int {
	sc := &routeScratch{}
	h := hashConfig(sc, cfg)
	return c.ring.successors(h, c.replicas+1, nil)
}

// Do executes one request synchronously through the router. Errors —
// shedding included — are reported in Result.Err, mirroring Engine.Do.
func (c *Cluster) Do(req engine.Request) engine.Result {
	return c.DoContext(context.Background(), req)
}

// DoContext is Do with deadline and cancellation awareness (the
// semantics of Engine.DoContext, behind a routing decision).
//
// In multi-process mode a dispatched request can fail AFTER routing
// because its shard process died mid-call. The router retries such
// failures — route again (the dead shard now reports unhealthy, so the
// key lands on its ring successor) — up to one attempt per shard, so a
// storm survives a shard kill with zero failed non-shed requests.
func (c *Cluster) DoContext(ctx context.Context, req engine.Request) engine.Result {
	c.requests.Add(1)
	cm := c.cm
	if cm != nil {
		cm.Requests.Inc()
	}
	for attempt := 0; ; attempt++ {
		s, spilled, err := c.route(req.Config)
		if err != nil {
			c.sheds.Add(1)
			if cm != nil {
				cm.Sheds.Inc()
			}
			return engine.Result{Err: err}
		}
		if spilled {
			c.spills.Add(1)
			if cm != nil {
				cm.Spills.Inc()
			}
		}
		s.inflight.Add(1)
		if cm != nil {
			cm.ShardRequests[s.id].Inc()
			cm.ShardInflight[s.id].Add(1)
		}
		res := s.be.Do(ctx, req)
		s.inflight.Add(-1)
		if cm != nil {
			cm.ShardInflight[s.id].Add(-1)
		}
		if res.Err != nil && errors.Is(res.Err, transport.ErrShardDown) &&
			attempt < len(c.shards) && ctx.Err() == nil {
			c.reroutes.Add(1)
			if cm != nil {
				cm.Reroutes.Inc()
			}
			continue
		}
		return res
	}
}

// Batch executes the requests concurrently — at most the cluster's
// worker bound in flight, each routed independently — and returns one
// Result per request, in order, with per-request error isolation.
func (c *Cluster) Batch(reqs []engine.Request) []engine.Result {
	return c.BatchContext(context.Background(), reqs)
}

// BatchContext is Batch with a shared context: requests still waiting
// when ctx is done return its error; running requests complete.
func (c *Cluster) BatchContext(ctx context.Context, reqs []engine.Request) []engine.Result {
	out := make([]engine.Result, len(reqs))
	sem := make(chan struct{}, c.workers)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = c.DoContext(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return out
}

// InjectFault arms the live-fault schedule on EVERY shard's pool for
// cfg: the router may serve the configuration from its home shard or,
// under load, any replica, so a drill that armed only one shard would
// silently miss spilled traffic. Arming continues past per-shard
// failures; the joined error reports any shard that refused.
func (c *Cluster) InjectFault(cfg engine.Config, injs ...machine.Injection) error {
	var errs []error
	for _, s := range c.shards {
		if err := s.be.InjectFault(cfg, injs...); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s.id, err))
		}
	}
	return errors.Join(errs...)
}

// DisarmFaults clears cfg's injection schedule on every shard, fired
// entries included.
func (c *Cluster) DisarmFaults(cfg engine.Config) error {
	var errs []error
	for _, s := range c.shards {
		if err := s.be.DisarmFaults(cfg); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s.id, err))
		}
	}
	return errors.Join(errs...)
}

// Metrics is a snapshot of the cluster's lifetime counters: the routing
// totals, the engine counters summed across shards, and each shard's
// own engine counters (the per-shard view the chaos and spill tests
// assert on).
type Metrics struct {
	// Requests counts requests that entered the router; Spills the
	// subset steered to a replica shard; Sheds the subset refused with
	// ErrSaturated.
	Requests int64
	Spills   int64
	Sheds    int64
	// Reroutes counts requests re-dispatched to a ring successor after
	// their chosen shard failed mid-call (always zero in-process).
	Reroutes int64
	// Engine is the element-wise sum of Shards.
	Engine engine.Metrics
	// Shards holds each shard engine's own counters, indexed by shard id.
	Shards []engine.Metrics
}

// Metrics returns a snapshot of the cluster's lifetime counters.
func (c *Cluster) Metrics() Metrics {
	m := Metrics{
		Requests: c.requests.Load(),
		Spills:   c.spills.Load(),
		Sheds:    c.sheds.Load(),
		Reroutes: c.reroutes.Load(),
		Shards:   make([]engine.Metrics, len(c.shards)),
	}
	for i, s := range c.shards {
		sm := s.be.Metrics()
		m.Shards[i] = sm
		m.Engine.Requests += sm.Requests
		m.Engine.PlanHits += sm.PlanHits
		m.Engine.PlanMisses += sm.PlanMisses
		m.Engine.MachinesBuilt += sm.MachinesBuilt
		m.Engine.MachinesCloned += sm.MachinesCloned
		m.Engine.AdmissionRejected += sm.AdmissionRejected
		m.Engine.Cancelled += sm.Cancelled
		m.Engine.Replans += sm.Replans
		m.Engine.Unrecoverable += sm.Unrecoverable
		m.Engine.DirectRequests += sm.DirectRequests
		m.Engine.OracleRuns += sm.OracleRuns
		m.Engine.ParityBreaks += sm.ParityBreaks
	}
	return m
}
