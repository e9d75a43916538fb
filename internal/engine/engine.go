// Package engine is the concurrent request engine behind the public
// hypersort.Engine: it amortizes the two expensive parts of serving many
// sort requests against a small set of machine configurations.
//
//   - Plan cache: partition.BuildPlan runs the O(rN) cutting-dimension
//     search. The engine runs it once per canonical configuration
//     (partition.PlanKey) and caches the resulting *partition.Plan — and,
//     just as importantly, caches the *failure* for inseparable fault
//     sets, so a hammering client cannot make the engine repeat a doomed
//     search. Concurrent first requests for the same key are
//     single-flighted: one goroutine searches, the rest wait.
//
//   - Machine pool: a machine.Machine is single-run — concurrent kernels
//     on one machine would interleave mailboxes. The engine keeps a
//     bounded pool of machines per configuration; a request borrows one
//     (cloning from a template when the pool has headroom, blocking for a
//     returned machine when it does not) and returns it afterwards.
//     Plans are immutable and shared by all machines of a configuration.
//
//   - One route per request: an eligible sort (see Mode) runs on the
//     direct substrate inline on the caller's goroutine; everything else
//     leases a machine. Admission is one atomic in-flight count per
//     configuration, refused with ErrAdmissionRejected at the
//     BatchOptions.QueueDepth bound.
//
// Requests are value-in/value-out and isolated: Do never panics the
// caller, Batch never lets one bad request poison its neighbors, and no
// request can observe another's keys — each run owns a private machine,
// and the sort/selection kernels treat the input slice as read-only,
// cloning per-processor shares before mutating.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/direct"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/partition"
	"hypersort/internal/selection"
	"hypersort/internal/sortutil"
)

// Config describes the machine configuration one request runs on. It
// mirrors the public hypersort.Config minus the Sorter-only options: the
// Trace hook (a per-run callback cannot be part of a cache key, and
// pooled machines must not smuggle one request's events into another's
// recorder), and the half-exchange protocol and distribution accounting
// (reproduction semantics the Sorter and the experiments measure
// through core.Options; no serving request sets them).
type Config struct {
	Dim        int
	Faults     []cube.NodeID
	LinkFaults [][2]cube.NodeID
	Model      machine.FaultModel
	Cost       machine.CostModel
	// Routing selects the machine's path discipline (default
	// RouteSingle). RouteMultipath requests get congestion-aware plans
	// and congestion-priced machines; they are never direct-eligible
	// (the §3 predictor has no congestion model).
	Routing machine.RoutingPolicy
}

// Op selects what a Request computes.
type Op int

const (
	// OpSort sorts Keys ascending.
	OpSort Op = iota
	// OpKthSmallest returns the K-th smallest key (1-based).
	OpKthSmallest
	// OpMedian returns the lower median.
	OpMedian
	// OpTopK returns the K largest keys in ascending order.
	OpTopK
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpSort:
		return "sort"
	case OpKthSmallest:
		return "kth-smallest"
	case OpMedian:
		return "median"
	case OpTopK:
		return "top-k"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Request is one unit of work: a configuration, an operation, and its
// operands. Requests in a batch are independent — they may use the same
// or different configurations.
type Request struct {
	Config Config
	Op     Op
	Keys   []sortutil.Key
	// K is the rank for OpKthSmallest / the count for OpTopK.
	K int
}

// Result is one request's outcome. Exactly one of the payload fields is
// meaningful, according to the request's Op: Keys for OpSort and OpTopK,
// Value for OpKthSmallest and OpMedian. Err is per-request: a failed
// request reports here and nowhere else.
//
// Res.PerNode aliases a buffer pooled with the machine that served the
// request (see lease): it is valid until the engine serves another
// request on the same configuration. Callers that hold results across
// further engine traffic must copy the map; every aggregate counter in
// Res is a plain value and safe to keep.
//
// Direct reports which substrate served the request: false means a
// simulated machine measured Res; true means the direct host-speed
// substrate sorted the keys and Res is the analytic prediction (see
// direct.Schedule.Predict for the exactness contract).
type Result struct {
	Keys   []sortutil.Key
	Value  sortutil.Key
	Res    machine.Result
	Direct bool
	Err    error
}

// Metrics is a snapshot of the engine's lifetime counters.
type Metrics struct {
	// Requests counts completed requests (including failed ones).
	Requests int64
	// PlanHits / PlanMisses count plan-cache lookups; a miss runs the
	// partition search (or finds its cached failure already recorded —
	// negative results count as hits once cached).
	PlanHits   int64
	PlanMisses int64
	// MachinesBuilt counts full machine.New constructions (one per pool,
	// the template); MachinesCloned counts Clone fast-path constructions.
	MachinesBuilt  int64
	MachinesCloned int64
	// FusedBatches and FusedRequests are always 0: the engine runs
	// every request on its own. They stay for existing /v1/metrics
	// readers.
	FusedBatches  int64
	FusedRequests int64
	// AdmissionRejected counts requests refused with
	// ErrAdmissionRejected; Cancelled counts requests whose context was
	// cancelled while they waited for a machine.
	AdmissionRejected int64
	Cancelled         int64
	// Replans counts successful hot replans after mid-run injected
	// casualties; Unrecoverable counts casualties the engine could not
	// replan around (the caller saw ErrUnrecoverable).
	Replans       int64
	Unrecoverable int64
	// DirectRequests counts requests served by the direct host-speed
	// substrate (no machine lease, predicted Result).
	DirectRequests int64
	// OracleRuns counts sampled direct results re-executed on the
	// simulator oracle; ParityBreaks counts oracle runs whose sorted
	// output differed from the direct output (any nonzero value is a
	// substrate bug).
	OracleRuns   int64
	ParityBreaks int64
}

// Engine caches plans and pools machines. The zero value is not
// usable; construct with New or NewOpts. All methods are safe for
// concurrent use.
type Engine struct {
	poolSize int
	workers  int
	// admit bounds each configuration's in-flight requests (see
	// BatchOptions.QueueDepth).
	admit int64

	mu    sync.Mutex
	plans map[partition.PlanKey]*planEntry
	pools map[poolKey]*pool

	// pkIntern maps a configuration's fingerprint bytes to the one
	// durable PlanKey string for it, so the per-request path builds the
	// fingerprint in a pooled buffer and allocates the string only on a
	// configuration's first appearance. Guarded by mu.
	pkIntern map[string]partition.PlanKey
	keyBufs  sync.Pool

	// mode selects the execution substrate (see Mode) and oracleSample
	// the direct-result cross-check rate; both are set before the engine
	// serves traffic (SetMode / SetOracleSample) and read without locks.
	mode         Mode
	oracleSample int

	requests   atomic.Int64
	planHits   atomic.Int64
	planMisses atomic.Int64
	built      atomic.Int64
	cloned     atomic.Int64
	rejected   atomic.Int64
	cancelled  atomic.Int64
	replans    atomic.Int64
	unrecov    atomic.Int64

	directReq    atomic.Int64
	oracleRuns   atomic.Int64
	parityBreaks atomic.Int64
	// oracleTick counts direct results for 1-in-N oracle sampling.
	oracleTick atomic.Int64

	// Observability hooks, set before the engine serves requests (see
	// Instrument / SetTrace): nil means off, and every consuming path
	// guards on that nil.
	em     *obs.EngineMetrics
	mm     *obs.MachineMetrics
	phases *obs.PhaseSet
	trace  machine.TraceFunc
}

// planEntry single-flights one configuration's partition search and
// caches the derived kernel layout (views, working order, slot map) —
// a pure function of the plan that would otherwise be rebuilt on every
// request. The direct-substrate artifacts ride along: the compiled
// schedule (single-flighted like the plan) and a pool of executors,
// since an Exec's retained arenas are single-request. inflight is the
// configuration's admission count (see Engine.admit).
type planEntry struct {
	once   sync.Once
	plan   *partition.Plan
	layout *core.Layout
	err    error

	inflight atomic.Int64

	directOnce sync.Once
	sched      *direct.Schedule
	execs      sync.Pool
}

// poolKey identifies one machine pool: everything machine.New consumes.
// The cost model is not part of the plan key (plans are cost-blind), but
// machines are built with it, so it extends the pool key.
type poolKey struct {
	pk   partition.PlanKey
	cost machine.CostModel
}

// ErrAdmissionRejected is reported (wrapped) in Result.Err when a
// request arrives while its configuration already has the admission
// bound's worth of requests in flight. It is the engine's backpressure
// signal: the caller should shed or retry with backoff rather than pile
// deeper.
var ErrAdmissionRejected = errors.New("engine: admission queue full")

// DefaultQueueDepth is the admission bound BatchOptions.QueueDepth
// selects when unset.
const DefaultQueueDepth = 256

// BatchOptions tunes request admission.
type BatchOptions struct {
	// QueueDepth bounds each configuration's in-flight requests; an
	// arrival finding the bound reached is rejected with
	// ErrAdmissionRejected. Values < 1 select DefaultQueueDepth.
	QueueDepth int
}

// New builds an engine with the default admission bound. poolSize
// bounds the simulated machines kept per configuration and workers
// bounds concurrently executing batch requests; values < 1 select
// GOMAXPROCS.
func New(poolSize, workers int) *Engine {
	return NewOpts(poolSize, workers, BatchOptions{})
}

// NewOpts is New with explicit admission options (zero-value fields
// select the defaults documented on BatchOptions).
func NewOpts(poolSize, workers int, batch BatchOptions) *Engine {
	if poolSize < 1 {
		poolSize = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if batch.QueueDepth < 1 {
		batch.QueueDepth = DefaultQueueDepth
	}
	return &Engine{
		poolSize: poolSize,
		workers:  workers,
		admit:    int64(batch.QueueDepth),
		plans:    make(map[partition.PlanKey]*planEntry),
		pools:    make(map[poolKey]*pool),
		pkIntern: make(map[string]partition.PlanKey),
	}
}

// planKey returns the interned PlanKey for cfg. The fingerprint is built
// in a pooled buffer and looked up without allocating; only a
// configuration's first appearance pays the string construction.
func (e *Engine) planKey(cfg Config) partition.PlanKey {
	bp, _ := e.keyBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	b := partition.AppendKeyRouting((*bp)[:0], cfg.Dim, cfg.Faults, cfg.LinkFaults, int(cfg.Model), int(cfg.Routing))
	e.mu.Lock()
	pk, ok := e.pkIntern[string(b)]
	if !ok {
		pk = partition.PlanKey(b)
		e.pkIntern[string(pk)] = pk
	}
	e.mu.Unlock()
	*bp = b
	e.keyBufs.Put(bp)
	return pk
}

// Close does nothing: pooled machines hold no goroutines between
// requests, so an engine needs no teardown. It stays so callers written
// against releases that kept warm workers still compile.
func (e *Engine) Close() {}

// Instrument registers the engine's observability bundles in r and
// attaches them: request latency and failure accounting, plan-cache and
// pool counters mirrored as scrapeable metrics, per-run machine
// aggregates, and per-phase kernel breakdowns. Call it once, before the
// engine serves requests — pooled machines capture the bundles at build
// time and the fields are read without locks.
func (e *Engine) Instrument(r *obs.Registry) {
	e.em = obs.NewEngineMetrics(r)
	e.mm = obs.NewMachineMetrics(r)
	e.phases = obs.NewPhaseSet(r)
}

// SetTrace attaches fn as the trace hook of every machine the engine
// builds afterwards. fn is called concurrently from all processor
// goroutines of all pooled machines and must be safe for concurrent use
// (a bounded ring like trace.Ring is the intended sink). Call before the
// engine serves requests: machines already pooled keep their old hook.
func (e *Engine) SetTrace(fn machine.TraceFunc) { e.trace = fn }

// Metrics returns a snapshot of the lifetime counters.
func (e *Engine) Metrics() Metrics {
	return Metrics{
		Requests:          e.requests.Load(),
		PlanHits:          e.planHits.Load(),
		PlanMisses:        e.planMisses.Load(),
		MachinesBuilt:     e.built.Load(),
		MachinesCloned:    e.cloned.Load(),
		AdmissionRejected: e.rejected.Load(),
		Cancelled:         e.cancelled.Load(),
		Replans:           e.replans.Load(),
		Unrecoverable:     e.unrecov.Load(),
		DirectRequests:    e.directReq.Load(),
		OracleRuns:        e.oracleRuns.Load(),
		ParityBreaks:      e.parityBreaks.Load(),
	}
}

// validate checks a configuration before anything is built from it:
// partition and cube panic on out-of-range dimensions, and a pooled
// engine cannot let one malformed request take the process down. It is
// the one check the engine's requests and Prepare's Sorter share.
func validate(cfg Config) error {
	if cfg.Dim < 0 || cfg.Dim > cube.MaxDim {
		return fmt.Errorf("engine: dimension %d outside [0,%d]", cfg.Dim, cube.MaxDim)
	}
	if cfg.Model != machine.Partial && cfg.Model != machine.Total {
		return fmt.Errorf("engine: unknown fault model %d", int(cfg.Model))
	}
	if cfg.Routing != machine.RouteSingle && cfg.Routing != machine.RouteMultipath {
		return fmt.Errorf("engine: unknown routing policy %d", int(cfg.Routing))
	}
	h := cube.New(cfg.Dim)
	for _, f := range cfg.Faults {
		if !h.Contains(f) {
			return fmt.Errorf("engine: fault address %d outside Q_%d", f, cfg.Dim)
		}
	}
	if len(cube.NewNodeSet(cfg.Faults...)) >= h.Size() {
		return fmt.Errorf("engine: %d faults leave no working processor on Q_%d", len(cfg.Faults), cfg.Dim)
	}
	for _, pair := range cfg.LinkFaults {
		if !h.Contains(pair[0]) || !h.Contains(pair[1]) {
			return fmt.Errorf("engine: link fault %d-%d outside Q_%d", pair[0], pair[1], cfg.Dim)
		}
		if cube.HammingDistance(pair[0], pair[1]) != 1 {
			return fmt.Errorf("engine: link fault %d-%d is not a hypercube edge", pair[0], pair[1])
		}
	}
	return nil
}

// buildPlan runs the partition search for a validated cfg. Multipath
// configurations score cutting sequences with the congestion-aware
// objective; the plan key carries the routing policy, so the two plan
// families never collide in the cache.
func buildPlan(cfg Config) (*partition.Plan, error) {
	obj := partition.ObjectiveHops
	if cfg.Routing == machine.RouteMultipath {
		obj = partition.ObjectiveCongestion
	}
	return partition.BuildPlanObjective(cfg.Dim, cube.NewNodeSet(cfg.Faults...), obj)
}

// machineConfig is the machine a validated cfg describes, with no trace
// hook or metrics attached.
func machineConfig(cfg Config) machine.Config {
	links := cube.NewEdgeSet()
	for _, pair := range cfg.LinkFaults {
		links.Add(pair[0], pair[1])
	}
	return machine.Config{
		Dim:        cfg.Dim,
		Faults:     cube.NewNodeSet(cfg.Faults...),
		Model:      cfg.Model,
		Cost:       cfg.Cost,
		LinkFaults: links,
		Routing:    cfg.Routing,
	}
}

// Prepare validates cfg and builds its plan and one machine, with trace
// as the machine's event hook, through the same checks, objective
// choice and machine configuration the engine's plan cache and pools
// use. Nothing is cached: it is the path for a caller that owns one
// machine, such as hypersort.Sorter.
func Prepare(cfg Config, trace machine.TraceFunc) (*partition.Plan, *machine.Machine, error) {
	if err := validate(cfg); err != nil {
		return nil, nil, err
	}
	plan, err := buildPlan(cfg)
	if err != nil {
		return nil, nil, err
	}
	mc := machineConfig(cfg)
	mc.Trace = trace
	m, err := machine.New(mc)
	if err != nil {
		return nil, nil, err
	}
	return plan, m, nil
}

// plan returns the cached plan entry for key, running the partition
// search (and the layout derivation) exactly once per key
// (single-flight). Failures are cached too.
func (e *Engine) plan(key partition.PlanKey, cfg Config) (*planEntry, error) {
	e.mu.Lock()
	entry, ok := e.plans[key]
	if !ok {
		entry = &planEntry{}
		e.plans[key] = entry
	}
	e.mu.Unlock()
	if ok {
		e.planHits.Add(1)
		if e.em != nil {
			e.em.PlanHits.Inc()
		}
	} else {
		e.planMisses.Add(1)
		if e.em != nil {
			e.em.PlanMisses.Inc()
		}
	}
	entry.once.Do(func() {
		entry.plan, entry.err = buildPlan(cfg)
		if entry.err == nil {
			entry.layout = core.NewLayout(entry.plan)
		}
	})
	return entry, entry.err
}

// poolFor returns the machine pool for key, creating it on first use.
func (e *Engine) poolFor(key poolKey, cfg Config) *pool {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.pools[key]
	if !ok {
		p = newPool(e.poolSize, func(prev *machine.Machine) (*machine.Machine, error) {
			if prev != nil {
				e.cloned.Add(1)
				if e.em != nil {
					e.em.MachinesCloned.Inc()
				}
				return prev.Clone(), nil
			}
			mc := machineConfig(cfg)
			mc.Trace, mc.Metrics = e.trace, e.mm
			m, err := machine.New(mc)
			if err == nil {
				e.built.Add(1)
				if e.em != nil {
					e.em.MachinesBuilt.Inc()
				}
			}
			return m, err
		})
		e.pools[key] = p
	}
	return p
}

// Plan returns the cached partition plan for cfg, running the
// cutting-dimension search only on the first request for the
// configuration. The returned plan is shared and must be treated as
// read-only.
func (e *Engine) Plan(cfg Config) (*partition.Plan, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	key := e.planKey(cfg)
	entry, err := e.plan(key, cfg)
	if err != nil {
		return nil, err
	}
	return entry.plan, nil
}

// Do executes one request synchronously and returns its result. Errors —
// configuration, planning, or run-time — are reported in Result.Err;
// Do never panics and never fails any request but its own.
func (e *Engine) Do(req Request) Result {
	return e.DoContext(context.Background(), req)
}

// DoContext is Do with deadline and cancellation awareness: if ctx is
// done on arrival or before the request acquires a pooled machine, the
// request returns promptly with the context's error wrapped in
// Result.Err, leaking no pool token or admission slot. A context that
// expires mid-run does not abort the run — runs are short and a
// partially executed simulated machine is worthless to a pool.
func (e *Engine) DoContext(ctx context.Context, req Request) Result {
	em := e.em
	if em == nil {
		res := e.do(ctx, req)
		e.requests.Add(1)
		return res
	}
	start := time.Now()
	res := e.do(ctx, req)
	e.requests.Add(1)
	em.Requests.Inc()
	if res.Err != nil {
		em.Failures.Inc()
	}
	em.Latency.Observe(time.Since(start).Nanoseconds())
	return res
}

// do is DoContext's body: panic containment, validation, planning,
// admission, then the request's one route — the direct substrate for
// eligible sorts, a leased machine for everything else.
func (e *Engine) do(ctx context.Context, req Request) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("engine: request panicked: %v", r)}
		}
	}()
	cfg := req.Config
	if err := validate(cfg); err != nil {
		return Result{Err: err}
	}
	if err := ctx.Err(); err != nil {
		// Deadline-aware admission: a dead-on-arrival request never
		// touches a machine or the direct substrate.
		return Result{Err: fmt.Errorf("engine: request not admitted: %w", err)}
	}
	key := e.planKey(cfg)
	entry, err := e.plan(key, cfg)
	if err != nil {
		return Result{Err: err}
	}
	if entry.inflight.Add(1) > e.admit {
		entry.inflight.Add(-1)
		e.rejected.Add(1)
		if e.em != nil {
			e.em.AdmissionRejected.Inc()
		}
		return Result{Err: fmt.Errorf("engine: %w (%d requests in flight on this configuration)", ErrAdmissionRejected, e.admit)}
	}
	defer entry.inflight.Add(-1)
	// Eligible sorts take the direct substrate unless this
	// configuration's pool has chaos injections armed.
	if e.directEligible(cfg, req.Op) && !e.poolArmed(key, cfg) {
		return e.serveDirect(key, cfg, entry, req)
	}
	return e.doOnMachine(ctx, key, cfg, entry, req)
}

// doOnMachine is the machine route: lease a machine, run the request on
// it, release. Used by every request the direct substrate does not
// serve, and by recovery's degraded re-runs.
func (e *Engine) doOnMachine(ctx context.Context, key partition.PlanKey, cfg Config, entry *planEntry, req Request) Result {
	pl := e.poolFor(poolKey{pk: key, cost: cfg.Cost}, cfg)
	var start time.Time
	if e.em != nil {
		start = time.Now()
	}
	l, err := pl.acquire(ctx)
	if err != nil {
		if ctx.Err() != nil {
			e.cancelled.Add(1)
			if e.em != nil {
				e.em.Cancelled.Inc()
			}
		}
		return Result{Err: fmt.Errorf("engine: waiting for a machine: %w", err)}
	}
	if e.em != nil {
		e.em.QueueWait.Observe(time.Since(start).Nanoseconds())
		e.em.PoolInUse.Add(1)
	}
	defer func() {
		pl.release(l)
		if e.em != nil {
			e.em.PoolInUse.Add(-1)
		}
	}()
	res := e.runOnLease(l, entry, req)
	if res.Err != nil && machine.IsInjectedDeath(res.Err) {
		// A live fault killed the run: diagnose on the still-leased
		// machine, replan, and finish on the degraded configuration.
		res = e.recoverFrom(ctx, l.m, req, res.Err)
	}
	return res
}

// runOnLease executes one request on an already-acquired lease.
func (e *Engine) runOnLease(l *lease, entry *planEntry, req Request) Result {
	m := l.m

	// Keys pass through uncloned: every downstream path (SortRun,
	// selection) treats the input as read-only, copying per-processor
	// shares before mutating — the same contract Sorter relies on.
	keys := req.Keys
	switch req.Op {
	case OpSort:
		run, err := l.sortRun(entry.layout, keys, core.Options{Phases: e.phases})
		if err != nil {
			return Result{Err: err}
		}
		// Reuse the lease's PerNode buffer run over run (first run
		// allocates it, the capture below pools it) — the aliasing rule
		// is documented on Result.
		r, err := m.RunInto(entry.layout.Working, run.Kernel(), l.perNode)
		if err != nil {
			l.run = nil // an aborted run's arenas are not worth vouching for
			return Result{Err: err}
		}
		l.perNode = r.PerNode
		return Result{Keys: run.Gather(), Res: r}
	case OpKthSmallest:
		v, r, err := selection.KthSmallestOpt(m, entry.plan, keys, req.K, selection.Options{Phases: e.phases})
		return Result{Value: v, Res: r, Err: err}
	case OpMedian:
		v, r, err := selection.MedianOpt(m, entry.plan, keys, selection.Options{Phases: e.phases})
		return Result{Value: v, Res: r, Err: err}
	case OpTopK:
		out, r, err := selection.TopKOpt(m, entry.plan, keys, req.K, selection.Options{Phases: e.phases})
		return Result{Keys: out, Res: r, Err: err}
	}
	return Result{Err: fmt.Errorf("engine: unknown op %d", int(req.Op))}
}

// Batch executes the requests concurrently — at most the engine's worker
// bound in flight, each request drawing a machine from its
// configuration's pool — and returns one Result per request, in order.
// Errors are isolated per request: results[i].Err concerns reqs[i] only.
func (e *Engine) Batch(reqs []Request) []Result {
	return e.BatchContext(context.Background(), reqs)
}

// BatchContext is Batch with a shared context: requests still waiting
// when ctx is done return its error (already-running requests complete).
func (e *Engine) BatchContext(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = e.DoContext(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return out
}
