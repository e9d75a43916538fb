// Package bitonic implements distributed block bitonic sorting kernels on
// the simulated hypercube multicomputer: the classic fault-free sort and
// the paper's §2.1 single-fault variant in which the processor at
// (reindexed) logical address 0 is dead and every compare-exchange
// involving it is skipped.
//
// # Block discipline
//
// Each live processor holds a chunk of keys kept internally sorted
// ascending at all times. A compare-exchange between partners is a full
// chunk swap followed by a local compare-split (keep the k smallest or k
// largest of the union). By the 0-1 principle, replacing the comparators
// of Batcher's bitonic network with compare-splits on pre-sorted chunks
// yields a correct block sorting algorithm; the keep-low/keep-high pattern
// below is the standard hypercube formulation, with all decisions flipped
// for a descending target order.
//
// The dead node at logical address 0 is equivalent to a participant whose
// chunk is pinned at the order's extreme sentinel (-inf for ascending,
// +inf for descending): address 0 always keeps the extreme side in every
// window it appears in, so both the dead node and its partner can simply
// skip the step — exactly the paper's rule that "the corresponding
// processor of P_0 just keeps its elements without doing any operation".
//
// # Comparison accounting
//
// Kernels charge the simulator's virtual clock with the paper's §3
// worst-case counts rather than instruction-exact tallies: a local
// heapsort of k keys costs (k-1)*ceil(log2 k)+1 comparisons, a
// compare-split costs k, and a two-way merge of k keys costs k-1. This is
// the same accounting the paper's closed-form T uses, which keeps the
// simulated makespans comparable with the model (see core's cost model).
package bitonic

import (
	"fmt"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
)

// View embeds a logical s-dimensional cube into the physical machine: the
// logical cube's bit j lives on physical dimension Dims[j], every other
// physical dimension is frozen to the corresponding bit of Fixed, and
// logical addresses are XOR-reindexed by Pivot so that the subcube's dead
// processor (fault or dangling), if any, sits at logical address 0.
type View struct {
	// Dims lists the physical dimensions spanned by the logical cube,
	// one per logical bit, in logical bit order.
	Dims []int
	// Fixed carries the frozen coordinates of the physical dimensions
	// outside Dims (bits inside Dims are ignored).
	Fixed cube.NodeID
	// Pivot is the logical-space XOR reindexing constant: physical
	// logical-bit pattern p maps to logical address p XOR Pivot. Choosing
	// Pivot as the dead processor's in-view bit pattern moves it to
	// logical 0.
	Pivot cube.NodeID
	// Dead reports whether logical address 0 is a dead processor (faulty
	// or dangling) that holds no keys and skips all exchanges.
	Dead bool
}

// FullCube returns the trivial view of the whole machine: logical
// addresses are physical addresses.
func FullCube(n int) View {
	dims := make([]int, n)
	for i := range dims {
		dims[i] = i
	}
	return View{Dims: dims}
}

// S returns the logical dimension of the view.
func (v View) S() int { return len(v.Dims) }

// Size returns the number of logical addresses, 2^S.
func (v View) Size() int { return 1 << len(v.Dims) }

// LiveCount returns the number of key-holding processors in the view.
func (v View) LiveCount() int {
	if v.Dead {
		return v.Size() - 1
	}
	return v.Size()
}

// Phys maps a logical address to its physical machine address.
func (v View) Phys(logical cube.NodeID) cube.NodeID {
	bits := logical ^ v.Pivot
	addr := v.Fixed
	for j, d := range v.Dims {
		if bits&(1<<j) != 0 {
			addr |= 1 << d
		} else {
			addr &^= 1 << d
		}
	}
	return addr
}

// PeerPhys returns the physical address of the logical-dimension-j
// neighbor of the processor whose physical address is self. Phys is
// XOR-linear in the logical bits (flipping logical bit j flips exactly
// physical bit Dims[j]), so the neighbor is one XOR away — no remapping
// loop. Valid only when self is inside the view.
func (v View) PeerPhys(self cube.NodeID, j int) cube.NodeID {
	return self ^ 1<<v.Dims[j]
}

// Logical maps a physical address inside the view back to its logical
// address. It is the inverse of Phys for addresses whose frozen bits
// match Fixed; other addresses are outside the view and yield an
// undefined result.
func (v View) Logical(phys cube.NodeID) cube.NodeID {
	var bits cube.NodeID
	for j, d := range v.Dims {
		if phys&(1<<d) != 0 {
			bits |= 1 << j
		}
	}
	return bits ^ v.Pivot
}

// LiveLogicals returns the logical addresses that hold keys, ascending.
func (v View) LiveLogicals() []cube.NodeID {
	out := make([]cube.NodeID, 0, v.LiveCount())
	for t := cube.NodeID(0); t < cube.NodeID(v.Size()); t++ {
		if v.Dead && t == 0 {
			continue
		}
		out = append(out, t)
	}
	return out
}

// LivePhys returns the physical addresses of the live processors,
// ordered by ascending logical address.
func (v View) LivePhys() []cube.NodeID {
	logicals := v.LiveLogicals()
	out := make([]cube.NodeID, len(logicals))
	for i, t := range logicals {
		out[i] = v.Phys(t)
	}
	return out
}

// Validate checks internal consistency against a machine of dimension n.
func (v View) Validate(n int) error {
	seen := make(map[int]bool, len(v.Dims))
	for _, d := range v.Dims {
		if d < 0 || d >= n {
			return fmt.Errorf("bitonic: view dimension %d outside [0,%d)", d, n)
		}
		if seen[d] {
			return fmt.Errorf("bitonic: view dimension %d repeated", d)
		}
		seen[d] = true
	}
	if v.Pivot >= cube.NodeID(v.Size()) {
		return fmt.Errorf("bitonic: pivot %d outside logical cube of dimension %d", v.Pivot, v.S())
	}
	return nil
}

// Ctx is the per-processor kernel context threading a processor's chunk
// and message-tag counter through the sort phases. All processors of a
// run must execute the same sequence of collective calls so their tag
// counters stay aligned.
type Ctx struct {
	P       *machine.Proc
	Logical cube.NodeID
	Chunk   []sortutil.Key // always sorted ascending
	// Protocol selects the compare-exchange wire protocol; the zero
	// value is FullBlock. Every processor of a run must use the same
	// protocol (tag counters count per-protocol messages).
	Protocol Protocol
	tag      machine.Tag
	// scratch is the second half of the context's double-buffered
	// arena: each compare-exchange writes its output into scratch and
	// swaps it with Chunk, so steady state a step allocates nothing.
	scratch []sortutil.Key
}

// NewCtx builds the context for a processor participating in view v with
// the given initial chunk (need not be sorted yet).
func NewCtx(p *machine.Proc, v View, chunk []sortutil.Key) *Ctx {
	return &Ctx{P: p, Logical: v.Logical(p.ID()), Chunk: chunk}
}

// NextTag reserves a fresh message tag; every collective step must call
// it exactly once on every processor.
func (c *Ctx) NextTag() machine.Tag {
	c.tag++
	return c.tag
}

// UseScratch seeds the context's double-buffered arena with a
// caller-owned buffer, so a caller that runs many kernels over
// fixed-size chunks (the engine's pooled sort runs) can recycle the
// scratch across runs instead of paying one allocation per context. The
// buffer must not alias the chunk; after the kernel finishes the
// caller's buffer and the chunk may have traded places (the arena
// ping-pongs), so the caller must treat both as a pair it owns.
func (c *Ctx) UseScratch(buf []sortutil.Key) {
	c.scratch = buf
}

// scratchFor returns the arena's scratch buffer resized to n, allocating
// only when the current one is too small — in a sort every chunk has the
// same fixed size, so this allocates once per context lifetime.
func (c *Ctx) scratchFor(n int) []sortutil.Key {
	if cap(c.scratch) < n {
		c.scratch = make([]sortutil.Key, n)
	}
	return c.scratch[:n]
}

// heapsortCost is the paper's worst-case comparison count for heapsort of
// k keys: (k-1)*ceil(log2 k) + 1.
func heapsortCost(k int) int {
	if k <= 1 {
		return 1
	}
	log := 0
	for v := k - 1; v > 0; v >>= 1 {
		log++
	}
	return (k-1)*log + 1
}

// hostSort executes local sorts on the host. The default is pdqsort
// (sortutil.SortHost): the simulated algorithm is still the paper's
// Step 3 heapsort — LocalSort charges heapsortCost regardless — but the
// host produces the (unique) sorted permutation the fastest way it can.
// The conformance test swaps HeapSort back in to pin that Results are
// bit-identical either way.
var hostSort = sortutil.SortHost

// LocalSort sorts the chunk ascending and charges the clock the paper's
// heapsort cost.
func (c *Ctx) LocalSort() {
	hostSort(c.Chunk, sortutil.Ascending)
	c.P.Compute(heapsortCost(len(c.Chunk)))
}

// compareExchange performs one compare-exchange with the processor at
// physical address peer under the configured protocol, consuming the
// protocol's tag budget. Both chunks must be sorted ascending and
// equally sized. Afterwards this side holds the k smallest (keepLow) or
// k largest keys of the pair's union, sorted ascending.
func (c *Ctx) compareExchange(peer cube.NodeID, keepLow bool) {
	if c.Protocol == HalfExchange {
		tag1, tag2 := c.NextTag(), c.NextTag()
		c.exchangeSplitHalf(peer, tag1, tag2, keepLow)
		return
	}
	theirs := c.P.Exchange(peer, c.NextTag(), c.Chunk)
	// Already-separated fast paths: when the two sorted chunks do not
	// interleave, the compare-split result is one of them verbatim, so
	// skip the merge loop (and, when it is our own chunk, the copy too).
	// The conditions mirror CompareSplitInto's tie-breaking exactly —
	// equal keys keep "mine" — so the kept keys are bit-identical to the
	// slow path's, and the virtual-time charge below is the same
	// len(Chunk) either way: host shortcuts never touch simulated cost.
	k := len(c.Chunk)
	if k > 0 && len(theirs) == k {
		if keepLow && c.Chunk[k-1] <= theirs[0] || !keepLow && c.Chunk[0] >= theirs[k-1] {
			c.P.Release(theirs)
			c.P.Compute(k)
			return
		}
		if keepLow && theirs[k-1] < c.Chunk[0] || !keepLow && theirs[0] > c.Chunk[k-1] {
			copy(c.Chunk, theirs)
			c.P.Release(theirs)
			c.P.Compute(k)
			return
		}
	}
	dst := sortutil.CompareSplitInto(c.scratchFor(k), c.Chunk, theirs, keepLow)
	c.P.Release(theirs)
	c.Chunk, c.scratch = dst, c.Chunk
	c.P.Compute(len(c.Chunk))
}

// ExchangeSplit performs one compare-split with the processor at physical
// address peer, reserving a tag. It is the building block of the paper's
// Step 7 cross-subcube stage: the core algorithm pairs corresponding
// reindexed processors of adjacent subcubes and calls this on both sides
// (with opposite keepLow). Processors sitting a step out (dead partners)
// must call SkipStep instead so tag counters stay aligned.
func (c *Ctx) ExchangeSplit(peer cube.NodeID, keepLow bool) {
	c.compareExchange(peer, keepLow)
}

// SkipStep advances the tag counter by one compare-exchange's budget
// without communicating, keeping this processor aligned with peers that
// performed a collective step it sat out.
func (c *Ctx) SkipStep() {
	for i := 0; i < c.Protocol.tagsPerExchange(); i++ {
		c.NextTag()
	}
}

// SortView runs the distributed block bitonic sort across the view,
// leaving the view's keys sorted in direction dir by logical address
// (each chunk internally ascending; chunk at logical t precedes chunk at
// t+1 in direction dir). If the view has a dead logical 0, it is skipped
// per the paper's single-fault rule and the result occupies logical
// addresses 1..2^s-1.
//
// Every live processor of the view must call SortView in the same kernel
// step; the dead processor (which runs no kernel) is skipped by its
// partners.
func (c *Ctx) SortView(v View, dir sortutil.Direction) {
	c.LocalSort()
	c.MergeView(v, dir)
}

// MergeView runs only the compare-exchange network of the bitonic sort
// (all s phases), assuming each chunk is already internally sorted
// ascending. Exposed separately because the paper's Step 8 re-sorts
// subcubes whose chunks are already sorted.
func (c *Ctx) MergeView(v View, dir sortutil.Direction) {
	s := v.S()
	t := c.Logical
	for i := 0; i < s; i++ {
		// For the outermost phase i = s-1 this bit is 0 (t < 2^s), giving
		// the final ascending merge.
		dirBit := cube.Bit(t, i+1)
		for j := i; j >= 0; j-- {
			peerLogical := cube.FlipBit(t, j)
			if v.Dead && (t == 0 || peerLogical == 0) {
				c.SkipStep() // the paper's skip rule: dead pairs do nothing
				continue
			}
			keepLow := dirBit == cube.Bit(t, j)
			if dir == sortutil.Descending {
				keepLow = !keepLow
			}
			c.compareExchange(v.PeerPhys(c.P.ID(), j), keepLow)
		}
	}
}
