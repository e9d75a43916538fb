// Package machine simulates an MIMD hypercube multicomputer in the style
// of the NCUBE/7 the paper evaluates on: one goroutine per processor,
// message passing between neighbors, and a causal virtual clock per node.
//
// # Timing model
//
// The simulator measures cost in abstract time units tied to the paper's
// two constants: t_c (CostModel.Compare), the cost of comparing one pair
// of keys, and t_s/r (CostModel.Elem), the cost of sending or receiving
// one key across one link. A message of L keys travelling H hops arrives
// H*(Startup + L*Elem) after it is sent (store-and-forward, as on the
// NCUBE). Each node's clock advances by its own compute calls and by
// message causality:
//
//	recv.clock = max(recv.clock, send.clock + latency)
//
// The makespan of a run is the maximum final clock over all participants
// — the simulated wall-clock time of the algorithm. Because clocks depend
// only on the message-passing causality of the (deterministic) kernels and
// never on host scheduling, repeated runs produce identical makespans.
//
// # Fault models
//
// Following §4 of the paper, a faulty processor is either *partial* (its
// compute portion is dead but its links still forward messages — what the
// VERTEX OS gave the authors) or *total* (the node routes nothing, and
// messages must detour around it, per Chen & Shin). The fault model
// selects the router: e-cube for Partial, fault-avoiding DFS for Total.
// In both models faulty processors never run kernels.
package machine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hypersort/internal/cube"
	"hypersort/internal/obs"
	"hypersort/internal/routing"
	"hypersort/internal/sortutil"
)

// Time is virtual time in abstract cost units.
type Time int64

// Tag disambiguates messages between the same (src, dst) pair; kernels
// typically encode the algorithm phase in it.
type Tag int32

// CostModel carries the paper's cost constants.
type CostModel struct {
	// Compare is t_c, the cost of one key comparison.
	Compare Time
	// Elem is t_s/r, the cost of moving one key across one link.
	Elem Time
	// Startup is the fixed per-hop message overhead. The paper's cost
	// model omits it (set it to zero to reproduce the closed form); real
	// machines pay it, so the default keeps a modest value.
	Startup Time
}

// DefaultCostModel mirrors the NCUBE-era ratio of communication to
// computation: moving a key across a link costs several comparisons, and
// each hop pays a fixed software overhead.
func DefaultCostModel() CostModel { return CostModel{Compare: 1, Elem: 3, Startup: 20} }

// PaperCostModel is the cost model of the paper's §3 closed-form analysis:
// unit comparison cost, unit transfer cost, no startup.
func PaperCostModel() CostModel { return CostModel{Compare: 1, Elem: 1, Startup: 0} }

// FaultModel selects how faulty processors treat traffic (§4).
type FaultModel int

const (
	// Partial faults destroy only the computational portion of a
	// processor; its links still forward messages (VERTEX behaviour).
	Partial FaultModel = iota
	// Total faults destroy the processor and all incident links; routes
	// must avoid it entirely.
	Total
)

// String implements fmt.Stringer.
func (f FaultModel) String() string {
	if f == Total {
		return "total"
	}
	return "partial"
}

// Config assembles a machine.
type Config struct {
	// Dim is the hypercube dimension n; the machine has 2^Dim processors.
	Dim int
	// Faults is the set of faulty processor addresses (may be empty).
	Faults cube.NodeSet
	// Model selects partial or total fault behaviour.
	Model FaultModel
	// Cost is the timing model; zero value means PaperCostModel.
	Cost CostModel
	// LinkFaults lists dead links. Messages route around them (the
	// paper's model allows "faulty processors/links"; a dead link always
	// blocks traffic regardless of the processor fault model).
	LinkFaults cube.EdgeSet
	// Routing selects the path discipline. RouteSingle (the default)
	// keeps the legacy single-path, hop-priced model bit-identical to
	// previous releases. RouteMultipath routes over vertex-disjoint path
	// sets, stripes large transfers across them, and turns on
	// congestion pricing (see congestion.go).
	Routing RoutingPolicy
	// HotLinks assigns an extra per-traversal virtual-time surcharge to
	// individual links — the hot-link scenario (outside contention, a
	// degraded wire, or chaos injection). A non-empty map turns on
	// congestion pricing even under RouteSingle, so single- and
	// multi-path runs against the same hot links are comparable.
	HotLinks map[cube.Edge]Time
	// Trace, if non-nil, receives every send, receive, and compute event
	// during runs. It is called from processor goroutines concurrently
	// and must be safe for concurrent use.
	Trace TraceFunc
	// Metrics, if non-nil, receives aggregate run statistics. The machine
	// flushes its per-node counters into the bundle once per Run — the
	// per-event hot path stays untouched — except queue-depth sampling,
	// which observes mailbox depth on a 1-in-16 subset of blocked
	// receives. Bundles are safe to share across machines (and Clones).
	Metrics *obs.MachineMetrics
}

// Machine is a simulated hypercube multicomputer. Create one with New,
// then execute SPMD kernels with Run. A Machine is reusable across runs;
// it is not safe for concurrent Runs. Callers that need to run several
// simulations of the same configuration at once (e.g. a request pool)
// should give each concurrent run its own Machine via Clone.
//
// Every Run starts one goroutine per participant and waits for all of
// them to finish, so a Machine holds no goroutines between runs and
// needs no teardown: dropping it is enough.
type Machine struct {
	h      cube.Hypercube
	cfg    Config
	router routing.Router
	nodes  []*node
	// healthy caches the fault-free addresses (ascending) — immutable
	// topology, computed once at New and shared by Clones.
	healthy []cube.NodeID
	// bufs recycles message payload slices; shared with Clones so warm
	// buffers survive across an engine pool's machines.
	bufs *keyPool
	// hopper is the router's allocation-free hop-count fast path, nil
	// when the router only materializes full paths. hamming additionally
	// marks routers whose hop count is exactly the Hamming distance, so
	// Send can compute it inline without the interface dispatch.
	hopper  routing.HopCounter
	hamming bool
	// inj is the live fault-injection schedule, shared with Clones (like
	// bufs) so arming a pool's template arms the whole pool. Disarmed it
	// costs one atomic nil-load per Proc operation; see inject.go.
	inj *injector
	// cong is the congestion-pricing state (multipath routing and/or hot
	// links), nil for legacy configurations — one nil check in Send is
	// the entire hot-path cost of the feature. Immutable, shared with
	// Clones. replayBuf is this machine's private replay scratch.
	cong      *congestion
	replayBuf []sendRec

	// Run state, reused across Runs so the steady state allocates
	// nothing per call. slots[i] runs participant i's kernel; the
	// closures are built once per machine because a go statement with
	// arguments would allocate per participant per run.
	wg       sync.WaitGroup
	kernel   Kernel
	errs     []error
	aborting atomic.Bool
	slots    []func()
	procs    []Proc
	inGroup  []bool // current run's participant set, indexed by address
}

// node is the per-processor state. Each node's clock and counters are
// only touched by its own kernel goroutine during a run; the mailbox is
// the sole cross-goroutine structure.
type node struct {
	id     cube.NodeID
	clock  Time
	box    mailbox
	faulty bool

	// cache is the node's private payload freelist, tried before the
	// machine-wide pool. Only the node's own kernel goroutine touches it
	// (Run starts and joins the goroutines, so cross-run access is
	// ordered), making the hot Send/Release path mutex-free: exchanges
	// release one payload and acquire one per step, so the symmetric flow
	// keeps this tiny stack hot. Inline array: no allocation per node.
	cache  [4][]sortutil.Key
	ncache int

	// statistics, owned by the node's goroutine
	msgsSent  int64
	keysSent  int64
	keyHops   int64
	compares  int64
	recvWaits int64

	// congestion state, owned by the node's goroutine and used only
	// when the machine prices congestion: the send log the post-run
	// replay consumes, its per-sender sequence counter, and the count
	// of transfers actually striped across multiple paths.
	slog    []sendRec
	seq     int64
	striped int64
}

// New builds the machine. It returns an error if the configuration is
// invalid (bad dimension or fault addresses outside the cube).
func New(cfg Config) (*Machine, error) {
	if cfg.Dim < 0 || cfg.Dim > cube.MaxDim {
		return nil, fmt.Errorf("machine: dimension %d out of range [0,%d]", cfg.Dim, cube.MaxDim)
	}
	h := cube.New(cfg.Dim)
	for f := range cfg.Faults {
		if !h.Contains(f) {
			return nil, fmt.Errorf("machine: fault address %d outside Q_%d", f, cfg.Dim)
		}
	}
	if (cfg.Cost == CostModel{}) {
		cfg.Cost = PaperCostModel()
	}
	if cfg.Faults == nil {
		cfg.Faults = cube.NewNodeSet()
	}
	for e := range cfg.LinkFaults {
		if !h.Contains(e.A) || !h.Contains(e.B) {
			return nil, fmt.Errorf("machine: link fault %v outside Q_%d", e, cfg.Dim)
		}
	}
	if cfg.Routing != RouteSingle && cfg.Routing != RouteMultipath {
		return nil, fmt.Errorf("machine: unknown routing policy %d", int(cfg.Routing))
	}
	for e, d := range cfg.HotLinks {
		if !h.Contains(e.A) || !h.Contains(e.B) || cube.HammingDistance(e.A, e.B) != 1 {
			return nil, fmt.Errorf("machine: hot link %v is not an edge of Q_%d", e, cfg.Dim)
		}
		if d < 0 {
			return nil, fmt.Errorf("machine: negative hot-link surcharge on %v", e)
		}
	}
	m := &Machine{h: h, cfg: cfg}
	switch {
	case cfg.Routing == RouteMultipath || len(cfg.HotLinks) > 0:
		// Congestion pricing: paths come from the multi-path router so
		// the inline pricing and the post-run occupancy replay agree on
		// every edge a message crosses. Single-path configurations with
		// hot links use the same router clamped to one path per pair.
		var nf cube.NodeSet
		if cfg.Model == Total {
			nf = cfg.Faults
		}
		maxPaths := 1
		if cfg.Routing == RouteMultipath {
			maxPaths = cfg.Dim
		}
		mpr := routing.NewMultiPathRouter(h, nf, cfg.LinkFaults, maxPaths)
		m.router = mpr
		hot := make(map[cube.Edge]Time, len(cfg.HotLinks))
		for e, d := range cfg.HotLinks {
			hot[cube.NewEdge(e.A, e.B)] = d
		}
		m.cong = &congestion{mpr: mpr, hot: hot, multipath: cfg.Routing == RouteMultipath}
	case len(cfg.LinkFaults) > 0 && cfg.Model == Total:
		m.router = routing.NewLinkAwareRouter(h, cfg.Faults, cfg.LinkFaults)
	case len(cfg.LinkFaults) > 0:
		// Partial processor faults still forward, but dead links never do.
		m.router = routing.NewLinkAwareRouter(h, nil, cfg.LinkFaults)
	case cfg.Model == Total:
		m.router = routing.NewFaultAvoidingRouter(h, cfg.Faults)
	default:
		m.router = routing.NewECubeRouter(h)
	}
	m.nodes = make([]*node, h.Size())
	for i := range m.nodes {
		id := cube.NodeID(i)
		m.nodes[i] = &node{id: id, box: newMailbox(), faulty: cfg.Faults.Has(id)}
	}
	m.healthy = make([]cube.NodeID, 0, h.Size()-len(cfg.Faults))
	for id := cube.NodeID(0); id < cube.NodeID(h.Size()); id++ {
		if !cfg.Faults.Has(id) {
			m.healthy = append(m.healthy, id)
		}
	}
	m.bufs = &keyPool{}
	m.inj = &injector{}
	m.hopper, _ = m.router.(routing.HopCounter)
	m.hamming = routing.HammingHops(m.router)
	return m, nil
}

// Clone returns a fresh Machine of the same configuration: identical
// topology, fault sets, cost model, and routing discipline, but its own
// per-node clocks, counters, and mailboxes. It is the constructor
// fast-path machine pools use: it skips New's validation and shares the
// immutable pieces (hypercube, config, router — routers hold no mutable
// state, so concurrent Route calls are safe), allocating only the
// per-node state. Runs on a clone and on the original are fully
// independent and may proceed concurrently.
//
// Clone may be called while the source machine is mid-Run: it reads only
// immutable configuration.
func (m *Machine) Clone() *Machine {
	c := &Machine{h: m.h, cfg: m.cfg, router: m.router, healthy: m.healthy, bufs: m.bufs, hopper: m.hopper, hamming: m.hamming, inj: m.inj, cong: m.cong}
	c.nodes = make([]*node, m.h.Size())
	for i := range c.nodes {
		id := cube.NodeID(i)
		c.nodes[i] = &node{id: id, box: newMailbox(), faulty: m.cfg.Faults.Has(id)}
	}
	return c
}

// MustNew is New for statically valid configurations; it panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Cube returns the underlying hypercube.
func (m *Machine) Cube() cube.Hypercube { return m.h }

// Faults returns the configured fault set (not a copy; do not modify).
func (m *Machine) Faults() cube.NodeSet { return m.cfg.Faults }

// LinkFaults returns the configured dead-link set (not a copy; do not
// modify). Fired KillLink injections are not included — see FiredFaults.
func (m *Machine) LinkFaults() cube.EdgeSet { return m.cfg.LinkFaults }

// Cost returns the active cost model.
func (m *Machine) Cost() CostModel { return m.cfg.Cost }

// Model returns the active fault model.
func (m *Machine) Model() FaultModel { return m.cfg.Model }

// Healthy returns the fault-free processor addresses in ascending order.
// The slice is cached on the immutable topology at construction time and
// shared by Clones: treat it as read-only (copy before sorting or
// mutating).
func (m *Machine) Healthy() []cube.NodeID { return m.healthy }

// Kernel is the SPMD program each participating processor executes. The
// Proc argument is that processor's machine interface. A kernel returning
// an error aborts the run.
type Kernel func(p *Proc) error

// Result summarizes one Run.
type Result struct {
	// Makespan is the simulated completion time: the maximum final clock
	// over all participants.
	Makespan Time
	// Messages is the total number of point-to-point messages sent.
	Messages int64
	// KeysSent is the total number of keys contained in those messages.
	KeysSent int64
	// KeyHops is the total key*link traffic (each key counted once per
	// hop it travelled), the quantity t_s/r prices.
	KeyHops int64
	// Comparisons is the total number of key comparisons performed.
	Comparisons int64
	// RecvWaits counts receives that found no matching message queued —
	// a rough measure of synchronization stalls (diagnostic only; it does
	// not affect virtual time).
	RecvWaits int64
	// LinkWait is the total virtual time messages queued behind busy
	// links in the post-run occupancy replay. Zero unless the machine
	// prices congestion (Config.Routing or Config.HotLinks), in which
	// case the Makespan already includes the latest queued delivery.
	LinkWait Time
	// MaxLinkOccupancy is the traversal count of the hottest single
	// link during the run (congestion-priced runs only).
	MaxLinkOccupancy int64
	// StripedSends counts transfers actually split across multiple
	// disjoint paths (RouteMultipath only).
	StripedSends int64
	// PerNode holds each participant's final clock keyed by address.
	PerNode map[cube.NodeID]Time
}

// Run executes kernel on every processor in participants concurrently and
// returns the aggregated result. Every participant must be a fault-free
// node of the cube; faulty or duplicate participants are rejected. Clocks,
// counters, and mailboxes are reset at the start of each run.
func (m *Machine) Run(participants []cube.NodeID, kernel Kernel) (Result, error) {
	return m.RunInto(participants, kernel, nil)
}

// RunInto is Run with a caller-provided PerNode buffer: if perNode is
// non-nil it is cleared, filled, and installed as Result.PerNode instead
// of allocating a fresh map. Pooled callers (the engine) pass the buffer
// from the previous run on the same resource; the map is theirs again
// only once they are done with the returned Result.
func (m *Machine) RunInto(participants []cube.NodeID, kernel Kernel, perNode map[cube.NodeID]Time) (Result, error) {
	if err := m.markParticipants(participants); err != nil {
		return Result{}, err
	}
	defer m.unmarkParticipants(participants)
	m.resetNodes()
	n := len(participants)
	m.prepareRun(kernel, n)
	m.wg.Add(n)
	for i, id := range participants {
		m.procs[i] = Proc{m: m, nd: m.nodes[id]}
		go m.slots[i]()
	}
	m.wg.Wait()
	m.kernel = nil // do not keep the kernel's captures alive between runs

	if firstErr := m.firstError(); firstErr != nil {
		return Result{}, firstErr
	}
	res := Result{PerNode: perNode}
	if res.PerNode == nil {
		res.PerNode = make(map[cube.NodeID]Time, n)
	} else {
		clear(res.PerNode)
	}
	for _, id := range participants {
		nd := m.nodes[id]
		if nd.clock > res.Makespan {
			res.Makespan = nd.clock
		}
		res.Messages += nd.msgsSent
		res.KeysSent += nd.keysSent
		res.KeyHops += nd.keyHops
		res.Comparisons += nd.compares
		res.RecvWaits += nd.recvWaits
		res.StripedSends += nd.striped
		res.PerNode[id] = nd.clock
	}
	if m.cong != nil {
		// Serialize concurrent traffic on shared links: replay the send
		// logs through the per-edge occupancy table and raise the
		// makespan to the latest queued delivery (see congestion.go).
		st := m.replayCongestion()
		res.LinkWait = st.linkWait
		res.MaxLinkOccupancy = st.maxOcc
		if st.latest > res.Makespan {
			res.Makespan = st.latest
		}
		if mm := m.cfg.Metrics; mm != nil {
			mm.FlushCongestion(int64(st.linkWait), st.perDim, st.maxOcc, res.StripedSends)
		}
	}
	// One flush per run: eight atomic adds, regardless of how many
	// millions of events the run produced.
	if mm := m.cfg.Metrics; mm != nil {
		mm.Runs.Inc()
		mm.Messages.Add(res.Messages)
		mm.KeysSent.Add(res.KeysSent)
		mm.KeyHops.Add(res.KeyHops)
		mm.Comparisons.Add(res.Comparisons)
		mm.RecvWaits.Add(res.RecvWaits)
		mm.Makespan.Observe(int64(res.Makespan))
	}
	return res, nil
}

// markParticipants validates a participant list — every entry a healthy
// node of the cube, no duplicates — and marks it in m.inGroup (which
// doubles as Proc.InGroup's membership set). On error nothing stays
// marked; on success the caller owns the marks and must clear them with
// unmarkParticipants when the run ends.
func (m *Machine) markParticipants(participants []cube.NodeID) error {
	if m.inGroup == nil {
		m.inGroup = make([]bool, m.h.Size())
	}
	for i, id := range participants {
		var err error
		switch {
		case !m.h.Contains(id):
			err = fmt.Errorf("machine: participant %d outside Q_%d", id, m.cfg.Dim)
		case m.cfg.Faults.Has(id):
			err = fmt.Errorf("machine: participant %d is faulty", id)
		case m.inGroup[id]:
			err = fmt.Errorf("machine: participant %d listed twice", id)
		}
		if err != nil {
			m.unmarkParticipants(participants[:i])
			return err
		}
		m.inGroup[id] = true
	}
	return nil
}

// unmarkParticipants clears marks set by a successful markParticipants.
func (m *Machine) unmarkParticipants(participants []cube.NodeID) {
	for _, id := range participants {
		m.inGroup[id] = false
	}
}

// prepareRun re-arms the run state for a run of kernel on n
// participants: abort flag, error slots, Proc storage and slot
// closures, all reused across runs so the steady state allocates nothing
// per call.
func (m *Machine) prepareRun(kernel Kernel, n int) {
	m.kernel = kernel
	m.aborting.Store(false)
	if cap(m.errs) < n {
		m.errs = make([]error, n)
	} else {
		m.errs = m.errs[:n]
		clear(m.errs)
	}
	if cap(m.procs) < n {
		m.procs = make([]Proc, n)
	} else {
		m.procs = m.procs[:n]
	}
	for i := len(m.slots); i < n; i++ {
		m.slots = append(m.slots, func() { m.runSlot(i) })
	}
}

// runSlot executes participant i's kernel and reports any failure.
func (m *Machine) runSlot(i int) {
	defer m.wg.Done()
	if err := m.procs[i].runKernel(m.kernel); err != nil {
		m.fail(i, err)
	}
}

// fail records a participant's error and aborts the run exactly once,
// waking every peer blocked in Recv.
func (m *Machine) fail(slot int, err error) {
	m.errs[slot] = err
	if m.aborting.CompareAndSwap(false, true) {
		for _, nd := range m.nodes {
			nd.box.abort()
		}
	}
}

// firstError selects the error to report for a finished run, preferring
// the root-cause failure over the ErrAborted echoes it triggered in the
// other participants. Called after the run's goroutines have finished.
func (m *Machine) firstError() error {
	var firstErr error
	for _, err := range m.errs {
		if err == nil {
			continue
		}
		if firstErr == nil || (errors.Is(firstErr, ErrAborted) && !errors.Is(err, ErrAborted)) {
			firstErr = err
		}
	}
	return firstErr
}

// resetNodes clears every node's clock, counters, and mailbox for a fresh
// run. Called with no kernel goroutines live.
func (m *Machine) resetNodes() {
	for _, nd := range m.nodes {
		nd.clock = 0
		nd.msgsSent, nd.keysSent, nd.keyHops, nd.compares, nd.recvWaits = 0, 0, 0, 0, 0
		nd.slog, nd.seq, nd.striped = nd.slog[:0], 0, 0
		// Undelivered payloads from an aborted previous run go back to
		// the pool: no kernel goroutine is alive to reference them.
		nd.box.reset(m.bufs)
	}
}

// RunAllHealthy executes kernel on every fault-free processor.
func (m *Machine) RunAllHealthy(kernel Kernel) (Result, error) {
	return m.Run(m.Healthy(), kernel)
}

// Close does nothing: a Machine holds no goroutines between runs. It
// stays so callers written against releases that kept warm workers
// still compile.
func (m *Machine) Close() {}

// Hops returns the hop count a message pays between src and dst under the
// machine's routing discipline, or an error if no route exists (possible
// only in the Total model).
func (m *Machine) Hops(src, dst cube.NodeID) (int, error) {
	if src == dst {
		return 0, nil
	}
	// Every message is priced by hop count alone, so prefer the router's
	// path-free counter (cached at construction) over materializing a Path.
	if m.hopper != nil {
		return m.hopper.Hops(src, dst)
	}
	p, err := m.router.Route(src, dst)
	if err != nil {
		return 0, err
	}
	return p.Hops(), nil
}
