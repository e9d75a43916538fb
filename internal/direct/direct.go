// Package direct is the host-speed execution substrate: it compiles a
// cached partition plan's kernel structure (core.Layout) into a flat
// schedule of compare-split rounds and executes it directly on the host
// — parallel local sorts over per-slot arena slices, then in-memory
// compare-splits following the plan's exchange pairs — with no simulated
// machines, mailboxes, or virtual clocks.
//
// The schedule replays exactly the dataflow of the simulated kernel
// (core's Steps 3-8): each working slot's chunk meets the same partners
// in the same order with the same keep-low/keep-high decisions, and the
// compare-split arithmetic is the same sortutil.CompareSplitInto both
// substrates agree on. Because pairs within a round are disjoint and the
// per-pair operation is deterministic, the direct output is bit-identical
// to the simulated run's — the property the parity suite in this package
// pins for every plan shape, healthy and degraded.
//
// What the simulator measures, direct mode predicts: Predict evaluates
// the §3 closed-form makespan (core.CostEstimate) and reconstructs the
// simulator's work counters from the schedule (pair count, share size,
// and per-pair route hops). For the partial fault model without link
// faults the predicted Messages/KeysSent/KeyHops/Comparisons equal the
// simulated counters exactly; with detour routing (total model or dead
// links) KeyHops is a Hamming-distance lower bound. The simulator stays
// the oracle: the engine cross-checks sampled direct results against it
// (see engine.SetOracleSample) and remains the only execution path while
// chaos injections are armed.
package direct

import (
	"runtime"
	"sync"

	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
)

// pair is one compare-split between two working slots: after the round,
// lo holds the k smallest keys of the union and hi the k largest.
type pair struct {
	lo, hi int32
}

// Schedule is a compiled plan: the flat sequence of compare-split rounds
// the fault-tolerant sort performs, in kernel order. Pairs within one
// round are disjoint (they model one parallel kernel step), so a round
// may execute its pairs in any order — or concurrently — with identical
// results. A Schedule is immutable after Compile and safe to share; the
// engine caches one alongside each plan entry.
type Schedule struct {
	layout *core.Layout
	p      int     // number of working slots (= len(layout.Working))
	pairs  []pair  // all rounds' pairs, flattened
	rounds []int32 // rounds[r] = end offset (exclusive) of round r in pairs
	// hopSum is the per-direction route hops summed over all pairs
	// (Hamming distance between the pair's physical addresses; merge
	// partners are physically adjacent, cross-subcube partners need not
	// be). KeyHops prediction = 2k * hopSum.
	hopSum int64
}

// Compile flattens layout's kernel structure into a Schedule, replaying
// core's Steps 3-8 loop order: the intra-subcube bitonic network
// (ascending iff the subcube address is even), then for each cut
// dimension pass (i, j) one cross-subcube exchange round followed by the
// full intra-subcube re-sort network with the paper's direction rule
// (ascending iff v_{j-1} == mask). Dead pairs are skipped exactly where
// the simulated kernel skips them.
func Compile(l *core.Layout) *Schedule {
	sch := &Schedule{layout: l, p: len(l.Working)}
	sp := l.Plan.Split
	// Step 3: intra-subcube sort, ascending iff the subcube address is
	// even.
	sch.mergeRounds(func(v cube.NodeID) bool { return cube.Bit(v, 0) == 0 })
	for i := 0; i < sp.M(); i++ {
		for j := i; j >= 0; j-- {
			// Step 7: compare-split with the corresponding reindexed
			// processor of the dimension-j neighbor subcube.
			sch.crossRound(i, j)
			// Step 8: re-sort each subcube; ascending iff v_{j-1} == mask
			// (v_{-1} taken as 0).
			sch.mergeRounds(func(v cube.NodeID) bool {
				mask := cube.Bit(v, i+1)
				prev := 0
				if j > 0 {
					prev = cube.Bit(v, j-1)
				}
				return prev == mask
			})
		}
	}
	return sch
}

// mergeRounds appends the s(s+1)/2 rounds of the full intra-subcube
// bitonic network (bitonic.Ctx.MergeView) for every subcube at once,
// with per-subcube direction chosen by ascending. Each round emits one
// pair per live logical pair of each subcube, from the low-logical side,
// skipping dead pairs per the paper's rule.
func (sch *Schedule) mergeRounds(ascending func(v cube.NodeID) bool) {
	l := sch.layout
	sp := l.Plan.Split
	s := sp.S()
	numSub := sp.NumSubcubes()
	size := cube.NodeID(1) << s
	for si := 0; si < s; si++ {
		for sj := si; sj >= 0; sj-- {
			n := len(sch.pairs)
			for v := 0; v < numSub; v++ {
				view := &l.Views[v]
				asc := ascending(cube.NodeID(v))
				for t := cube.NodeID(0); t < size; t++ {
					if cube.Bit(t, sj) != 0 {
						continue // emit each pair once, from its bit-sj=0 side
					}
					if view.Dead && t == 0 {
						continue // dead pair: both sides skip the step
					}
					peer := t | 1<<sj
					// MergeView's rule from the t side: keepLow iff the
					// direction bit (bit si+1 of t, shared with peer since
					// sj <= si) equals bit sj of t, which is 0 here.
					lowT := cube.Bit(t, si+1) == 0
					if !asc {
						lowT = !lowT
					}
					a := int32(l.SlotOf[view.Phys(t)])
					b := int32(l.SlotOf[view.Phys(peer)])
					if lowT {
						sch.pairs = append(sch.pairs, pair{lo: a, hi: b})
					} else {
						sch.pairs = append(sch.pairs, pair{lo: b, hi: a})
					}
					sch.hopSum++ // merge partners are physically adjacent
				}
			}
			if len(sch.pairs) > n {
				sch.rounds = append(sch.rounds, int32(len(sch.pairs)))
			}
		}
	}
}

// crossRound appends one Step 7 round: every live logical address t of
// every subcube v with bit j clear exchanges with the same t of subcube
// v XOR 2^j. The bit-j=0 side keeps the smaller keys iff mask (bit i+1
// of v, shared by both subcubes since j <= i) is 0. Deadness is uniform
// at logical 0 across subcubes (partition.Plan assigns every subcube a
// dead processor when any has one), so a live t is live on both sides.
func (sch *Schedule) crossRound(i, j int) {
	l := sch.layout
	sp := l.Plan.Split
	numSub := sp.NumSubcubes()
	n := len(sch.pairs)
	for v := 0; v < numSub; v++ {
		if cube.Bit(cube.NodeID(v), j) != 0 {
			continue
		}
		v2 := sp.NeighborSubcube(cube.NodeID(v), j)
		viewA, viewB := &l.Views[v], &l.Views[v2]
		mask := cube.Bit(cube.NodeID(v), i+1)
		size := cube.NodeID(viewA.Size())
		for t := cube.NodeID(0); t < size; t++ {
			if viewA.Dead && t == 0 {
				continue
			}
			pa, pb := viewA.Phys(t), viewB.Phys(t)
			a := int32(l.SlotOf[pa])
			b := int32(l.SlotOf[pb])
			sch.hopSum += int64(cube.HammingDistance(pa, pb))
			if mask == 0 {
				sch.pairs = append(sch.pairs, pair{lo: a, hi: b})
			} else {
				sch.pairs = append(sch.pairs, pair{lo: b, hi: a})
			}
		}
	}
	if len(sch.pairs) > n {
		sch.rounds = append(sch.rounds, int32(len(sch.pairs)))
	}
}

// P returns the number of working slots the schedule distributes over.
func (sch *Schedule) P() int { return sch.p }

// NumRounds returns the number of non-empty compare-split rounds.
func (sch *Schedule) NumRounds() int { return len(sch.rounds) }

// NumPairs returns the total number of compare-split pairs over all
// rounds — the work count Predict's communication terms scale with.
func (sch *Schedule) NumPairs() int { return len(sch.pairs) }

// shareSize returns the padded per-slot share size k for nKeys keys,
// matching workload.DistributeInto (ceil, floor 1).
func (sch *Schedule) shareSize(nKeys int) int64 {
	q := (nKeys + sch.p - 1) / sch.p
	if q == 0 {
		q = 1
	}
	return int64(q)
}

// heapCost is the paper's worst-case heapsort comparison count for k
// keys, (k-1)*ceil(log2 k)+1 — the amount bitonic.Ctx.LocalSort charges
// the simulated clock, reconstructed here for the predicted counters.
func heapCost(k int64) int64 {
	if k <= 1 {
		return 1
	}
	var log int64
	for v := k - 1; v > 0; v >>= 1 {
		log++
	}
	return (k-1)*log + 1
}

// Predict returns the analytic machine.Result a simulated run of nKeys
// keys would report: Makespan from the §3 closed form
// (core.CostEstimate) and the work counters reconstructed from the
// schedule. A zero cost model normalizes to machine.PaperCostModel, the
// same default machine.New applies.
//
// Exactness: Messages, KeysSent, and Comparisons equal the simulated
// full-block-protocol counters exactly (each pair is one send and one
// k-comparison compare-split per side, each slot one heapsort charge).
// KeyHops is exact under Hamming routing (partial fault model, no link
// faults) and a lower bound under detour routing. Makespan is the
// paper's worst-case bound, not the simulated critical path — the cost
// validation suite pins its observed accuracy band. RecvWaits and
// PerNode are host-scheduling diagnostics with no direct-mode analogue
// and stay zero/nil.
func (sch *Schedule) Predict(nKeys int, cost machine.CostModel) (machine.Result, error) {
	if (cost == machine.CostModel{}) {
		cost = machine.PaperCostModel()
	}
	plan := sch.layout.Plan
	makespan, err := core.CostEstimate(nKeys, plan.Cube.Dim(), plan.Split.M(), plan.HasDead, cost)
	if err != nil {
		return machine.Result{}, err
	}
	k := sch.shareSize(nKeys)
	npairs := int64(len(sch.pairs))
	return machine.Result{
		Makespan:    makespan,
		Messages:    2 * npairs,
		KeysSent:    2 * k * npairs,
		KeyHops:     2 * k * sch.hopSum,
		Comparisons: int64(sch.p)*heapCost(k) + 2*k*npairs,
	}, nil
}

// parallelThreshold is the padded key count (p*q) below which Sort runs
// single-threaded: under it, the local sorts and rounds finish in tens
// of microseconds and goroutine fan-out would cost more than it saves.
// Request-level parallelism (many concurrent callers) covers the
// small-input regime instead.
const parallelThreshold = 1 << 15

// Exec executes a Schedule with retained arenas: one backing array for
// the shares, one for the compare-split scratch, re-carved per Sort so
// the steady state allocates only the gathered output. An Exec is NOT
// safe for concurrent use — the engine pools them per plan entry and
// each request borrows one.
type Exec struct {
	sched       *Schedule
	backing     []sortutil.Key
	shares      [][]sortutil.Key
	scratchBack []sortutil.Key
	scratch     [][]sortutil.Key
}

// NewExec builds an executor for sch with empty arenas; the first Sort
// sizes them.
func NewExec(sch *Schedule) *Exec { return &Exec{sched: sch} }

// Sort sorts keys ascending by executing the compiled schedule on the
// host. keys is read-only (the shares are copies, exactly like the
// simulated distribution); the returned slice is freshly allocated.
// Inputs past parallelThreshold padded keys run the local sorts and each
// round's pairs across GOMAXPROCS-bounded workers — deterministically,
// since a round's pairs touch disjoint slots.
func (x *Exec) Sort(keys []sortutil.Key) ([]sortutil.Key, error) {
	sch := x.sched
	p := sch.p
	var err error
	// Re-carving BOTH arenas every call resets the buffer permutation
	// left by the previous run's ping-pong and header swaps, so a share
	// and its scratch can never alias.
	x.backing, x.shares, err = workload.DistributeInto(x.backing, x.shares, keys, p)
	if err != nil {
		return nil, err
	}
	q := len(x.shares[0])
	if cap(x.scratchBack) < p*q {
		x.scratchBack = make([]sortutil.Key, p*q)
	}
	if cap(x.scratch) < p {
		x.scratch = make([][]sortutil.Key, p)
	} else {
		x.scratch = x.scratch[:p]
	}
	for i := 0; i < p; i++ {
		x.scratch[i] = x.scratchBack[i*q : (i+1)*q : (i+1)*q]
	}

	workers := 1
	if p*q >= parallelThreshold {
		if workers = runtime.GOMAXPROCS(0); workers > p {
			workers = p
		}
	}

	// Step 3 local sorts: every slot, independently.
	parallelFor(workers, p, func(i int) {
		sortutil.SortHost(x.shares[i], sortutil.Ascending)
	})

	// Compare-split rounds, in schedule order; pairs within a round are
	// disjoint, so order within a round is free.
	start := int32(0)
	for _, end := range sch.rounds {
		pairs := sch.pairs[start:end]
		parallelFor(workers, len(pairs), func(i int) {
			x.step(pairs[i])
		})
		start = end
	}

	out := make([]sortutil.Key, 0, p*q)
	for _, sh := range x.shares {
		out = append(out, sh...)
	}
	return sortutil.StripInf(out), nil
}

// step performs one compare-split pair: afterwards slot pr.lo holds the
// k smallest keys of the two slots' union and pr.hi the k largest, both
// sorted ascending. The separated-chunk fast paths mirror the simulated
// kernel's (bitonic.Ctx.compareExchange) including tie-breaking, so the
// kept values are identical either way.
func (x *Exec) step(pr pair) {
	a, b := x.shares[pr.lo], x.shares[pr.hi]
	k := len(a)
	if k == 0 {
		return
	}
	if a[k-1] <= b[0] {
		return // already separated: both sides keep their chunk
	}
	if b[k-1] < a[0] {
		// Fully crossed: swap the slice headers instead of copying.
		x.shares[pr.lo], x.shares[pr.hi] = b, a
		return
	}
	dlo := sortutil.CompareSplitInto(x.scratch[pr.lo][:k], a, b, true)
	dhi := sortutil.CompareSplitInto(x.scratch[pr.hi][:k], b, a, false)
	x.shares[pr.lo], x.scratch[pr.lo] = dlo, a
	x.shares[pr.hi], x.scratch[pr.hi] = dhi, b
}

// parallelFor runs f(0..n-1) across at most workers goroutines with a
// deterministic striped assignment (worker w takes i = w, w+workers,
// ...). workers <= 1 runs inline.
func parallelFor(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	for i := 0; i < n; i += workers {
		f(i)
	}
	wg.Wait()
}
