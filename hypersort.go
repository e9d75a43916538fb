// Package hypersort is a fault-tolerant parallel sorting library for
// (simulated) hypercube multicomputers, reproducing Sheu, Chen & Chang,
// "Fault-Tolerant Sorting Algorithm on Hypercube Multicomputers"
// (ICPP 1992).
//
// An n-dimensional hypercube of 2^n processors with up to n-1 known
// faulty processors sorts M keys with no spare hardware: the cube is
// partitioned into subcubes holding at most one fault each (with the
// minimum number of cuts), a single-fault-tolerant bitonic sort runs
// inside each subcube, and a bitonic-like merge runs across subcubes.
// Against the classic alternative — retreating to the largest fault-free
// subcube — the algorithm keeps at least 3/4 of the machine working
// instead of as little as 1/4.
//
// # Quick start
//
//	s, err := hypersort.New(hypersort.Config{Dim: 6, Faults: []hypersort.NodeID{3, 17}})
//	if err != nil { ... }
//	sorted, stats, err := s.Sort(keys)
//
// The machine is simulated: each processor is a goroutine, links are
// channels, and Stats reports virtual time in units of the configured
// cost model (per-comparison and per-key-per-hop constants), so
// experiments are deterministic and reproducible. See DESIGN.md for the
// architecture and EXPERIMENTS.md for the paper-versus-measured record.
package hypersort

import (
	"hypersort/internal/bitonic"
	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/diagnosis"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/partition"
	"hypersort/internal/selection"
	"hypersort/internal/sortutil"
	"hypersort/internal/xrand"
)

// Key is one sortable element.
type Key = sortutil.Key

// NodeID is a processor address in the hypercube; bit d is the
// coordinate along dimension d.
type NodeID = cube.NodeID

// FaultModel selects how faulty processors treat traffic.
type FaultModel = machine.FaultModel

// Fault model values: Partial faults still forward messages (the
// NCUBE/VERTEX behaviour the paper simulated); Total faults kill the
// node's links too, forcing detours.
const (
	Partial = machine.Partial
	Total   = machine.Total
)

// Time is simulated time in cost-model units.
type Time = machine.Time

// CostModel carries the simulator's time constants: Compare (the paper's
// t_c), Elem (t_s/r, per key per hop), and Startup (per-hop message
// overhead, zero in the paper's model).
type CostModel = machine.CostModel

// DefaultCostModel mirrors an NCUBE-era communication/computation ratio.
func DefaultCostModel() CostModel { return machine.DefaultCostModel() }

// PaperCostModel is the unit-cost model of the paper's §3 analysis.
func PaperCostModel() CostModel { return machine.PaperCostModel() }

// Protocol selects the compare-exchange wire protocol.
type Protocol = bitonic.Protocol

// Protocol values: FullBlock swaps whole chunks in one message (default);
// HalfExchange is the paper's literal two-round Step 7(a)-(c).
const (
	FullBlock    = bitonic.FullBlock
	HalfExchange = bitonic.HalfExchange
)

// TraceEvent is one simulator event (send, receive, or compute); see
// Config.Trace.
type TraceEvent = machine.TraceEvent

// RoutingPolicy selects how compare-split traffic is routed and priced.
type RoutingPolicy = machine.RoutingPolicy

// Routing policy values: RouteECube (default) is the classic
// deterministic dimension-order discipline with hop-count pricing — the
// paper's model, bit-identical to every prior release. RouteMultipath
// stripes large transfers across vertex-disjoint paths and prices
// per-link queueing: the partition heuristic switches to the
// congestion-aware objective and Stats.Makespan includes modeled link
// wait. See DESIGN.md §12.
const (
	RouteECube     = machine.RouteSingle
	RouteMultipath = machine.RouteMultipath
)

// Config assembles a fault-tolerant sorter.
type Config struct {
	// Dim is the hypercube dimension n (2^n processors).
	Dim int
	// Faults lists faulty processor addresses. The paper's guarantee
	// covers up to Dim-1 faults; larger sets are accepted whenever a
	// single-fault partition still exists.
	Faults []NodeID
	// Model is the fault model (default Partial, as in the paper's
	// NCUBE simulation).
	Model FaultModel
	// Cost is the simulator cost model (default PaperCostModel).
	Cost CostModel
	// Protocol is the compare-exchange wire protocol (default
	// FullBlock). HalfExchange is Sorter-only: an Engine rejects it
	// with ErrSorterOnly.
	Protocol Protocol
	// LinkFaults lists dead links as endpoint pairs; messages route
	// around them (the paper's "faulty processors/links" model).
	LinkFaults [][2]NodeID
	// AccountDistribution includes the host scatter/gather of keys in
	// the simulated time (the paper's cost model excludes it).
	// Sorter-only: an Engine rejects it with ErrSorterOnly.
	AccountDistribution bool
	// Routing selects the compare-split routing policy (default
	// RouteECube, the paper's hop-priced dimension-order discipline).
	Routing RoutingPolicy
	// Trace, if non-nil, receives every simulator event during Sort; it
	// is called concurrently from processor goroutines and must be safe
	// for concurrent use (see internal/trace.Recorder). Sorter-only: an
	// Engine rejects it with ErrSorterOnly (see EngineConfig.Trace for
	// the engine-wide hook).
	Trace func(TraceEvent)
}

// Stats reports one sort's simulated execution.
//
// Each request — including each request of an Engine batch — runs on its
// own simulated machine with its own virtual clock, so Stats values from
// different requests are independent. To aggregate over a batch, sum the
// work counters (Messages, KeysSent, KeyHops, Comparisons); Makespans do
// not sum — independent machines run in parallel, so the batch's
// simulated critical path is the maximum Makespan, which is what
// SumStats reports.
type Stats struct {
	// Makespan is the simulated completion time in cost-model units.
	Makespan int64
	// Messages, KeysSent, KeyHops and Comparisons count communication
	// and computation over all processors.
	Messages    int64
	KeysSent    int64
	KeyHops     int64
	Comparisons int64
}

// Partition describes the partition decisions behind a sorter, mirroring
// the paper's §2.2-§3 outputs.
type Partition struct {
	// Mincut is m, the minimum number of cutting dimensions.
	Mincut int
	// CuttingSet is Ψ: every minimum-length cutting sequence.
	CuttingSet [][]int
	// Chosen is the selected sequence D_β.
	Chosen []int
	// ExtraComm is formula (1)'s bound for Chosen.
	ExtraComm int
	// Dangling lists healthy processors idled for load balance.
	Dangling []NodeID
	// Working is N', the number of key-holding processors.
	Working int
	// Utilization is Working over healthy processors, in [0, 1].
	Utilization float64
}

// Sorter is a reusable fault-tolerant sorter for one machine
// configuration. It is safe for sequential reuse; concurrent Sort calls
// on the same Sorter are not supported (the underlying simulated machine
// is single-run). For concurrent requests, repeated configurations, or
// batch workloads, use Engine, which caches partition plans and pools
// independent machines per configuration.
type Sorter struct {
	mach *machine.Machine
	plan *partition.Plan
	opts core.Options
}

// New validates the configuration, runs the partition algorithm, and
// builds the simulated machine — through the same checks, objective
// choice and machine construction an Engine applies to each request.
func New(cfg Config) (*Sorter, error) {
	plan, mach, err := engine.Prepare(toEngine(cfg), machine.TraceFunc(cfg.Trace))
	if err != nil {
		return nil, err
	}
	return &Sorter{
		mach: mach,
		plan: plan,
		opts: core.Options{Protocol: cfg.Protocol, AccountDistribution: cfg.AccountDistribution},
	}, nil
}

// Sort sorts keys ascending on the faulty hypercube and returns the
// sorted slice with execution statistics. The input is not modified.
func (s *Sorter) Sort(keys []Key) ([]Key, Stats, error) {
	sorted, res, err := core.FTSortOpt(s.mach, s.plan, keys, s.opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return sorted, statsOf(res), nil
}

// Partition returns the partition decisions (Ψ, D_β, dangling
// processors, utilization) the sorter operates with.
func (s *Sorter) Partition() Partition {
	return partitionInfo(s.plan)
}

// partitionInfo converts an internal plan into the public Partition.
func partitionInfo(p *partition.Plan) Partition {
	out := Partition{
		Mincut:      p.Mincut(),
		Chosen:      append([]int(nil), p.Chosen...),
		ExtraComm:   p.ExtraComm,
		Dangling:    append([]NodeID(nil), p.Dangling...),
		Working:     p.Working(),
		Utilization: p.Utilization(),
	}
	for _, d := range p.Set.Sequences {
		out.CuttingSet = append(out.CuttingSet, append([]int(nil), d...))
	}
	return out
}

// EstimatedTime evaluates the paper's §3 closed-form worst-case cost for
// sorting m keys on this configuration, in cost-model units.
func (s *Sorter) EstimatedTime(m int) (int64, error) {
	t, err := core.CostEstimate(m, s.plan.Cube.Dim(), s.plan.Mincut(), s.plan.HasDead, s.mach.Cost())
	return int64(t), err
}

// KthSmallest returns the k-th smallest key (1-based) without sorting,
// via distributed binary search with rank-count reductions on the same
// fault-tolerant layout — far cheaper than Sort when only an order
// statistic is needed. See internal/selection for the algorithm.
func (s *Sorter) KthSmallest(keys []Key, k int) (Key, Stats, error) {
	v, res, err := selection.KthSmallest(s.mach, s.plan, keys, k)
	if err != nil {
		return 0, Stats{}, err
	}
	return v, statsOf(res), nil
}

// Median returns the lower median of keys without sorting.
func (s *Sorter) Median(keys []Key) (Key, Stats, error) {
	v, res, err := selection.Median(s.mach, s.plan, keys)
	if err != nil {
		return 0, Stats{}, err
	}
	return v, statsOf(res), nil
}

// TopK returns the k largest keys in ascending order without a full
// sort.
func (s *Sorter) TopK(keys []Key, k int) ([]Key, Stats, error) {
	out, res, err := selection.TopK(s.mach, s.plan, keys, k)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, statsOf(res), nil
}

// Sort is the one-call convenience: configure, plan, and sort.
func Sort(cfg Config, keys []Key) ([]Key, Stats, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	return s.Sort(keys)
}

// Diagnose runs a simulated PMC test round on a Q_dim whose true fault
// set is trueFaults and decodes the syndrome, returning the identified
// faults. It makes the paper's "fault locations are known beforehand"
// assumption executable: callers can feed the result straight into
// Config.Faults. The seed drives the faulty testers' arbitrary replies.
func Diagnose(dim int, trueFaults []NodeID, seed uint64) ([]NodeID, error) {
	h := cube.New(dim)
	faults := cube.NewNodeSet(trueFaults...)
	syndrome := diagnosis.Collect(h, faults, xrand.New(seed))
	found, err := diagnosis.Diagnose(h, syndrome, dim)
	if err != nil {
		return nil, err
	}
	return found.Sorted(), nil
}

func statsOf(res machine.Result) Stats {
	return Stats{
		Makespan:    int64(res.Makespan),
		Messages:    res.Messages,
		KeysSent:    res.KeysSent,
		KeyHops:     res.KeyHops,
		Comparisons: res.Comparisons,
	}
}
