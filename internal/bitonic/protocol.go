package bitonic

import (
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
)

// Protocol selects how a compare-exchange moves keys between partners.
// Both protocols transfer exactly k keys per node per exchange; they
// differ in message count and comparison count.
type Protocol int

const (
	// FullBlock swaps whole chunks in one message each way; each side
	// computes the compare-split locally (k comparisons). The library
	// default.
	FullBlock Protocol = iota
	// HalfExchange is the paper's literal Step 7(a)-(c): each side sends
	// half its chunk, the pairs are compared element-wise (k/2
	// comparisons per side), losers are returned in a second message,
	// and the kept halves are merged (k-1 comparisons). Two messages
	// each way instead of one, ~1.5k comparisons instead of k.
	HalfExchange
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == HalfExchange {
		return "half-exchange"
	}
	return "full-block"
}

// tagsPerExchange returns how many message tags one compare-exchange
// consumes, so skipping nodes stay aligned with exchanging ones.
func (p Protocol) tagsPerExchange() int {
	if p == HalfExchange {
		return 2
	}
	return 1
}

// exchangeSplitHalf runs the paper's two-round protocol with the
// processor at peer. Both chunks are sorted ascending and equally sized;
// pairing is positional against the partner's descending view
// (mine[t] vs theirs[k-1-t]), which is exactly the paper's first-half /
// last-half exchange expressed over ascending storage.
//
// Roles: the keep-low side evaluates pairs t in [h, k) and ends with all
// the pair minima; the keep-high side evaluates pairs t in [0, h) and
// ends with all the maxima (h = k/2). The minima form an
// ascending-then-descending sequence and the maxima a
// descending-then-ascending one; Step 7(c)'s merge of "the two ordered
// subsequences" restores ascending chunk order.
//
// The whole round trip runs on the context's double-buffered arena: pair
// winners are written into the chunk in place (the evaluated indices
// never overlap the half that was sent), losers go to the scratch half,
// received payloads are released back to the machine's pool, and the
// final merge ping-pongs chunk and scratch — no per-step allocation.
func (c *Ctx) exchangeSplitHalf(peer cube.NodeID, tag1, tag2 machine.Tag, keepLow bool) {
	k := len(c.Chunk)
	h := k / 2
	scr := c.scratchFor(k)
	if keepLow {
		// Round 1 (Step 7a): send my first half, receive theirs.
		theirs := c.P.Exchange(peer, tag1, c.Chunk[:h])
		// Round 2 (Step 7b): evaluate pairs t in [h, k): mine[t] vs
		// theirs[k-1-t]; theirs holds their ascending first half
		// [0, k-h), and k-1-t for t in [h,k) spans [0, k-h). The pair
		// minimum lands in chunk[t], the loser in scratch (t order).
		losers := scr[:k-h]
		for t := h; t < k; t++ {
			a, b := c.Chunk[t], theirs[k-1-t]
			if a <= b {
				losers[t-h] = b
			} else {
				c.Chunk[t] = b
				losers[t-h] = a
			}
		}
		c.P.Release(theirs)
		c.P.Compute(k - h)
		c.P.Send(peer, tag2, losers)
		won := c.P.Recv(peer, tag2) // minima of pairs [0, h), in t order
		copy(c.Chunk[:h], won)      // replaces the half sent in round 1
		c.P.Release(won)
		// Step 7c: minima in t order are ascending-then-descending.
		c.Chunk, c.scratch = sortBitonicRunsInto(scr, c.Chunk), c.Chunk
		c.P.Compute(k - 1)
		return
	}
	// Keep-high side: send my first half too (the paper's "last half of
	// the descending view" is the ascending first half), receive theirs.
	theirs := c.P.Exchange(peer, tag1, c.Chunk[:k-h])
	// Evaluate pairs t in [0, h): mine in the descending view is
	// b_desc[t] = chunk[k-1-t]; partner's element is a[t] = theirs[t].
	// The pair maximum lands in chunk[t] (disjoint from the read indices
	// [k-h, k): k-h >= h for every k), the loser in scratch (t order).
	losers := scr[:h]
	for t := 0; t < h; t++ {
		a, b := theirs[t], c.Chunk[k-1-t]
		if a >= b {
			c.Chunk[t] = a
			losers[t] = b
		} else {
			c.Chunk[t] = b
			losers[t] = a
		}
	}
	c.P.Release(theirs)
	c.P.Compute(h)
	c.P.Send(peer, tag2, losers)
	won := c.P.Recv(peer, tag2) // maxima of pairs [h, k), in t order
	copy(c.Chunk[h:], won)
	c.P.Release(won)
	// Maxima in t order are descending-then-ascending (chunk[:h] covers
	// t in [0,h), the received half covers t in [h,k)).
	c.Chunk, c.scratch = sortBitonicRunsInto(scr, c.Chunk), c.Chunk
	c.P.Compute(k - 1)
}

// sortBitonicRunsInto sorts a sequence consisting of at most two
// monotone runs (ascending-then-descending or descending-then-ascending)
// into ascending order with a single merge — the paper's Step 7(c). It
// writes the result into dst (capacity >= len(xs), no aliasing with xs)
// and returns the filled dst.
// xs may be mutated (runs are normalized to ascending in place before
// the merge) — callers ping-pong it against dst as the next scratch.
func sortBitonicRunsInto(dst, xs []sortutil.Key) []sortutil.Key {
	n := len(xs)
	dst = dst[:n]
	// Find the end of the first monotone run; equal neighbors continue a
	// run in either direction, so skip the leading plateau before fixing
	// the direction and let plateaus extend the run afterwards.
	i := 1
	for i < n && xs[i] == xs[i-1] {
		i++
	}
	if i >= n {
		copy(dst, xs) // constant or single-element sequence
		return dst
	}
	ascending := xs[i] > xs[i-1]
	i++
	for i < n && (xs[i] == xs[i-1] || (xs[i] > xs[i-1]) == ascending) {
		i++
	}
	first, second := xs[:i], xs[i:]
	// Normalize both runs to ascending; the second run is monotone by
	// the two-run precondition, so a single sortedness probe suffices.
	if !ascending {
		sortutil.Reverse(first)
	}
	if !sortutil.IsSorted(second, sortutil.Ascending) {
		sortutil.Reverse(second)
	}
	return sortutil.MergeInto(dst, first, second, sortutil.Ascending)
}
