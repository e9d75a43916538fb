// Package core implements the paper's fault-tolerant sorting algorithm
// (§3, Steps 1-8): sorting M keys on an n-dimensional hypercube with up
// to n-1 known faulty processors, by partitioning the cube into the
// single-fault subcube structure F_n^m, running the §2.1 single-fault
// bitonic sort inside each subcube, and merging across subcubes with a
// bitonic-like network that treats every subcube as one node of a Q_m.
//
// The steps map onto the code as follows:
//
//	Step 1 (reindex)      — partition.Plan.DeadW + bitonic.SubcubeView's
//	                        Pivot put each subcube's dead processor at
//	                        logical address 0.
//	Step 2 (distribute)   — workload.Distribute over the N' working
//	                        processors in (subcube, logical) order.
//	Step 3 (local+intra)  — bitonic.Ctx.SortView per subcube, ascending
//	                        iff the subcube address v is even.
//	Steps 4-6 (loops)     — the i/j double loop over subcube dimensions.
//	Step 7 (cross)        — Ctx.ExchangeSplit with the same-logical
//	                        processor of the dimension-j neighbor
//	                        subcube; keep the smaller keys iff
//	                        mask == v_j (mask = bit i+1 of v).
//	Step 8 (re-sort)      — Ctx.MergeView (the full s(s+1)/2-step
//	                        bitonic network), ascending iff
//	                        v_{j-1} == mask (v_{-1} = 0), so the next
//	                        exchange always pairs an ascending subcube
//	                        with a descending one — the discipline that
//	                        makes the chunk-wise exchange an exact
//	                        subcube-level compare-split.
//
// Step 8 must be the full re-sort, not just a bitonic merge: although the
// block after a compare-split is bitonic across the subcube, the dead
// processor at logical 0 behaves as the extreme sentinel of whatever
// direction the next operation runs in, and the bitonic profile's
// extreme-valued end does not in general sit at logical 0. The full
// network sorts unconditionally, which is exactly why the paper's skip
// rule is safe; see DESIGN.md ("Known deviations") for the analysis.
package core

import (
	"fmt"

	"hypersort/internal/bitonic"
	"hypersort/internal/collective"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/partition"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
)

// FTSort sorts keys ascending on machine m according to plan, returning
// the sorted keys (in the subcubes' address order, gathered) and the
// simulated run cost. The plan must have been built for the same fault
// set the machine carries; mismatches are rejected because a kernel
// scheduled on a processor the machine considers faulty would be a silent
// lie about the hardware.
func FTSort(m *machine.Machine, plan *partition.Plan, keys []sortutil.Key) ([]sortutil.Key, machine.Result, error) {
	return FTSortOpt(m, plan, keys, Options{})
}

// Options tunes algorithm variants.
type Options struct {
	// Protocol selects the compare-exchange wire protocol: the default
	// full-block swap, or the paper's literal two-round half-exchange
	// (Step 7(a)-(c)). Both move the same key volume; see the protocol
	// ablation in EXPERIMENTS.md.
	Protocol bitonic.Protocol
	// AccountDistribution includes the paper's Step 2 (and the final
	// collection) in the simulated time: keys are scattered from a host
	// processor (the first working processor) over a binomial tree
	// before sorting and gathered back afterwards. The paper's cost
	// model excludes this phase; turning it on measures what that
	// exclusion hides (distribution ablation in EXPERIMENTS.md).
	AccountDistribution bool
	// StepHook, if non-nil, receives every processor's chunk at each
	// algorithm checkpoint (after Step 3, after each Step 7 exchange,
	// after each Step 8 re-sort) — the programmatic form of the paper's
	// Figure 6 walkthrough. Called concurrently; see StateRecorder.
	StepHook StepHook
	// PerNodeBuf, if non-nil, is cleared, filled, and installed as the
	// Result's PerNode map instead of allocating a fresh one per call
	// (machine.RunInto's contract). Pooled callers pass the buffer from
	// the previous run on the same resource; it belongs to the returned
	// Result until the caller is done with it.
	PerNodeBuf map[cube.NodeID]machine.Time
	// Phases, if non-nil, receives per-phase virtual-time and comparison
	// breakdowns keyed by the paper's algorithm steps: each processor
	// reports the clock and comparison deltas of its Step 3 local sort,
	// Step 3 intra-subcube merge, every Step 7 exchange, and every Step 8
	// re-sort (plus Step 2 scatter/gather when AccountDistribution is on).
	// Nil disables phase accounting entirely.
	Phases *obs.PhaseSet
}

// phaseProbe attributes a processor's clock and comparison advance to
// algorithm phases: lap observes the delta since the previous lap (or
// mark) under the given phase. A probe with a nil PhaseSet does nothing.
type phaseProbe struct {
	p     *machine.Proc
	ps    *obs.PhaseSet
	clock machine.Time
	comps int64
}

// mark restarts the delta window without observing (used to exclude
// unattributed intervals).
func (pr *phaseProbe) mark() {
	if pr.ps == nil {
		return
	}
	pr.clock, pr.comps = pr.p.Clock(), pr.p.Comparisons()
}

// lap observes the window since the last mark/lap under phase ph and
// restarts the window.
func (pr *phaseProbe) lap(ph obs.Phase) {
	if pr.ps == nil {
		return
	}
	c, k := pr.p.Clock(), pr.p.Comparisons()
	pr.ps.Observe(ph, int64(c-pr.clock), k-pr.comps)
	pr.clock, pr.comps = c, k
}

// Collective tags live far above the bitonic context's counter so the
// scatter/gather phases can never collide with sort-phase messages.
const (
	scatterTag machine.Tag = 1 << 30
	gatherTag  machine.Tag = 1<<30 + 8
)

// FTSortOpt is FTSort with explicit algorithm options.
func FTSortOpt(m *machine.Machine, plan *partition.Plan, keys []sortutil.Key, opts Options) ([]sortutil.Key, machine.Result, error) {
	return FTSortLayout(m, NewLayout(plan), keys, opts)
}

// FTSortLayout is FTSortOpt with a precomputed layout. A Layout is a
// pure function of its plan, so callers serving many requests for the
// same configuration (the engine) build it once and reuse it, skipping
// the per-request view/slot-map construction.
func FTSortLayout(m *machine.Machine, layout *Layout, keys []sortutil.Key, opts Options) ([]sortutil.Key, machine.Result, error) {
	run, err := NewSortRun(m, layout, keys, opts)
	if err != nil {
		return nil, machine.Result{}, err
	}
	res, err := m.RunInto(layout.Working, run.Kernel(), opts.PerNodeBuf)
	if err != nil {
		return nil, machine.Result{}, err
	}
	return run.Gather(), res, nil
}

// SortRun is one prepared FTSort execution: the validated plan/machine
// pairing, the distributed key shares, the per-processor output slots,
// and the SPMD kernel closure — everything FTSortLayout does around the
// machine run, split from the run itself so a caller that sorts over and
// over on one machine (the engine's pooled leases) can keep the run and
// Reuse its arenas.
type SortRun struct {
	layout *Layout
	opts   Options
	shares [][]sortutil.Key
	out    [][]sortutil.Key
	group  *collective.Group
	// backing is the shares' arena and scratch/scratchBack the matching
	// per-slot double-buffer halves handed to the bitonic contexts; all
	// three are retained so Reuse can redistribute fresh keys without
	// allocating. After a run, a slot's share and scratch buffers may
	// have traded places (the bitonic arena ping-pongs) — both stay
	// owned by this SortRun, so Reuse simply overwrites them.
	backing     []sortutil.Key
	scratch     [][]sortutil.Key
	scratchBack []sortutil.Key
	// kern caches the Kernel closure: a reused SortRun serves many
	// requests, and the closure's captures (just the receiver) never
	// change.
	kern machine.Kernel
}

// NewSortRun validates the plan/machine pairing and distributes keys,
// returning the prepared run. The returned SortRun is good for one
// execution of its Kernel followed by one Gather; Reuse re-arms it for
// another request on the same layout.
func NewSortRun(m *machine.Machine, layout *Layout, keys []sortutil.Key, opts Options) (*SortRun, error) {
	plan := layout.Plan
	if plan.Cube.Dim() != m.Cube().Dim() {
		return nil, fmt.Errorf("core: plan for Q_%d used on Q_%d", plan.Cube.Dim(), m.Cube().Dim())
	}
	for f := range m.Faults() {
		if !plan.Faults.Has(f) {
			return nil, fmt.Errorf("core: machine fault %d missing from plan", f)
		}
	}
	for f := range plan.Faults {
		if !m.Faults().Has(f) {
			return nil, fmt.Errorf("core: plan fault %d not faulty on machine", f)
		}
	}

	r := &SortRun{
		layout: layout,
		opts:   opts,
		out:    make([][]sortutil.Key, len(layout.Working)),
	}
	if err := r.distribute(keys); err != nil {
		return nil, err
	}
	if opts.AccountDistribution {
		var err error
		if r.group, err = collective.NewGroup(layout.Working); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Fits reports whether Reuse may re-arm r for a request on layout with
// opts: the same layout and the same kernel-shaping options. A StepHook
// on either side never fits, since hooks cannot be compared.
func (r *SortRun) Fits(layout *Layout, opts Options) bool {
	return r.layout == layout && r.opts.Protocol == opts.Protocol &&
		r.opts.AccountDistribution == opts.AccountDistribution &&
		r.opts.Phases == opts.Phases && r.opts.StepHook == nil && opts.StepHook == nil
}

// Reuse re-arms a finished run for a fresh request on the same layout
// and options, redistributing keys into the retained arenas. It skips
// NewSortRun's plan/machine validation — the caller vouches that the
// machine is the one the run was built for (the engine keeps each run on
// the lease of the machine that built it). Steady state it allocates
// nothing: only a change in padded share geometry regrows the arenas.
func (r *SortRun) Reuse(keys []sortutil.Key) error {
	clear(r.out)
	return r.distribute(keys)
}

// distribute splits keys into the run's share arena and sizes the
// per-slot scratch buffers to match, reusing retained capacity.
func (r *SortRun) distribute(keys []sortutil.Key) error {
	p := len(r.layout.Working)
	var err error
	r.backing, r.shares, err = workload.DistributeInto(r.backing, r.shares, keys, p)
	if err != nil {
		return err
	}
	q := len(r.shares[0])
	if cap(r.scratchBack) < p*q {
		r.scratchBack = make([]sortutil.Key, p*q)
	}
	if cap(r.scratch) < p {
		r.scratch = make([][]sortutil.Key, p)
	} else {
		r.scratch = r.scratch[:p]
	}
	for i := 0; i < p; i++ {
		r.scratch[i] = r.scratchBack[i*q : (i+1)*q : (i+1)*q]
	}
	return nil
}

// Kernel returns the run's SPMD program, suitable for machine.Run on
// the layout's Working participants. The closure is cached: successive
// calls (one per Reuse cycle) return the same function.
func (r *SortRun) Kernel() machine.Kernel {
	if r.kern == nil {
		r.kern = r.runKernel
	}
	return r.kern
}

// runKernel is the SPMD program of one participant (the body of Kernel).
func (r *SortRun) runKernel(p *machine.Proc) error {
	layout, opts := r.layout, r.opts
	slot := layout.SlotOf[p.ID()]
	pr := phaseProbe{p: p, ps: opts.Phases}
	pr.mark()
	// Distribute owns the shares' arena for this run, so each kernel
	// owns its share outright (the caller's keys stay untouched
	// without a defensive clone).
	share := r.shares[slot]
	scratch := r.scratch[slot]
	if opts.AccountDistribution {
		var all [][]sortutil.Key
		if slot == 0 {
			all = r.shares
		}
		share = collective.Scatter(p, r.group, 0, scatterTag, all)
		pr.lap(obs.PhaseStep2Distribute)
	}
	chunk := kernel(p, layout, share, scratch, opts, &pr)
	if opts.AccountDistribution {
		pr.mark()
		collected := collective.Gather(p, r.group, 0, gatherTag, chunk)
		pr.lap(obs.PhaseStep2Distribute)
		if slot == 0 {
			copy(r.out, collected)
		}
		return nil
	}
	r.out[slot] = chunk
	return nil
}

// Gather concatenates the per-processor chunks (in distribution order)
// and strips the padding sentinels, yielding the sorted keys. Call only
// after the Kernel's run completed without error.
func (r *SortRun) Gather() []sortutil.Key {
	// Every chunk has the padded share size, so size the gather exactly
	// (the original key count undercounts by the dummy padding).
	gathered := make([]sortutil.Key, 0, len(r.shares)*len(r.shares[0]))
	for _, chunk := range r.out {
		gathered = append(gathered, chunk...)
	}
	return sortutil.StripInf(gathered)
}

// Layout is the precomputed placement the kernels share: every subcube's
// view and the global distribution order of working processors.
type Layout struct {
	Plan *partition.Plan
	// Views[v] is subcube v's bitonic view (dead processor at logical 0).
	Views []bitonic.View
	// Working lists the N' working processors in (subcube address,
	// logical address) order — the order keys are distributed and
	// gathered in, so ascending output lands in the subcubes' address
	// order as Step 2 requires.
	Working []cube.NodeID
	// SlotOf inverts Working.
	SlotOf map[cube.NodeID]int
}

// NewLayout materializes the views and distribution order for a plan.
func NewLayout(plan *partition.Plan) *Layout {
	h := plan.Cube
	sp := plan.Split
	l := &Layout{
		Plan:   plan,
		Views:  make([]bitonic.View, sp.NumSubcubes()),
		SlotOf: make(map[cube.NodeID]int, plan.Working()),
	}
	for v := 0; v < sp.NumSubcubes(); v++ {
		sc := sp.SubcubeOf(cube.NodeID(v))
		if plan.HasDead {
			deadW := plan.DeadW[v]
			l.Views[v] = bitonic.SubcubeView(h, sc, &deadW)
		} else {
			l.Views[v] = bitonic.SubcubeView(h, sc, nil)
		}
		for _, phys := range l.Views[v].LivePhys() {
			l.SlotOf[phys] = len(l.Working)
			l.Working = append(l.Working, phys)
		}
	}
	return l
}

// kernel is the SPMD program of one working processor. It returns the
// processor's final chunk (sorted ascending). The probe attributes the
// processor's clock advance to the paper's steps; pass a probe with a
// nil PhaseSet to disable.
func kernel(p *machine.Proc, l *Layout, share, scratch []sortutil.Key, opts Options, pr *phaseProbe) []sortutil.Key {
	sp := l.Plan.Split
	v := sp.V(p.ID())
	myView := l.Views[v]
	t := myView.Logical(p.ID())
	ctx := bitonic.NewCtx(p, myView, share)
	ctx.Protocol = opts.Protocol
	ctx.UseScratch(scratch)

	// Step 3: local heapsort + intra-subcube bitonic sort, ascending iff
	// the subcube address is even. (SortView unrolled so the probe can
	// split the local sort from the intra-subcube merge.)
	dir := dirFor(cube.Bit(v, 0) == 0)
	ctx.LocalSort()
	pr.lap(obs.PhaseStep3Local)
	ctx.MergeView(myView, dir)
	pr.lap(obs.PhaseStep3Intra)
	if opts.StepHook != nil {
		opts.StepHook(StepEvent{Stage: StageAfterLocalAndIntra, J: -1, Node: p.ID(), V: v, T: t, Chunk: ctx.Chunk})
	}

	// Steps 4-8: bitonic-like merge across subcubes.
	mDims := sp.M()
	for i := 0; i < mDims; i++ {
		mask := cube.Bit(v, i+1) // Step 5; bit m of v is 0 (v < 2^m)
		for j := i; j >= 0; j-- {
			// Step 7: compare-exchange with the corresponding reindexed
			// processor of the dimension-j neighbor subcube.
			peerView := l.Views[sp.NeighborSubcube(v, j)]
			peer := peerView.Phys(t)
			keepLow := mask == cube.Bit(v, j)
			ctx.ExchangeSplit(peer, keepLow)
			pr.lap(obs.PhaseStep7Exchange)
			if opts.StepHook != nil {
				opts.StepHook(StepEvent{Stage: StageAfterExchange, I: i, J: j, Node: p.ID(), V: v, T: t, Chunk: ctx.Chunk})
			}
			// Step 8: re-sort the subcube; ascending iff v_{j-1} == mask
			// (v_{-1} taken as 0) so the next pairing is asc-vs-desc.
			prev := 0
			if j > 0 {
				prev = cube.Bit(v, j-1)
			}
			ctx.MergeView(myView, dirFor(prev == mask))
			pr.lap(obs.PhaseStep8Resort)
			if opts.StepHook != nil {
				opts.StepHook(StepEvent{Stage: StageAfterResort, I: i, J: j, Node: p.ID(), V: v, T: t, Chunk: ctx.Chunk})
			}
		}
	}
	return ctx.Chunk
}

// dirFor translates the paper's even/odd and mask conditions into a sort
// direction.
func dirFor(ascending bool) sortutil.Direction {
	if ascending {
		return sortutil.Ascending
	}
	return sortutil.Descending
}

// SortOnFaultyCube is the one-call convenience: build the partition plan
// for the fault set, build the machine, and run FTSort. It returns the
// plan alongside so callers can inspect the partition decisions.
func SortOnFaultyCube(n int, faults cube.NodeSet, model machine.FaultModel, cost machine.CostModel, keys []sortutil.Key) ([]sortutil.Key, *partition.Plan, machine.Result, error) {
	plan, err := partition.BuildPlan(n, faults)
	if err != nil {
		return nil, nil, machine.Result{}, err
	}
	m, err := machine.New(machine.Config{Dim: n, Faults: faults, Model: model, Cost: cost})
	if err != nil {
		return nil, nil, machine.Result{}, err
	}
	sorted, res, err := FTSort(m, plan, keys)
	if err != nil {
		return nil, nil, machine.Result{}, err
	}
	return sorted, plan, res, nil
}
