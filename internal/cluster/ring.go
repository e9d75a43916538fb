package cluster

// Consistent-hash ring. Each shard owns many pseudo-random points on a
// uint64 circle (virtual nodes); a plan key hashes to a point and is
// owned by the first shard point at or clockwise of it. The properties
// the router relies on:
//
//   - Stability: adding a shard reassigns only the key ranges the new
//     shard's points capture — an expected 1/(N+1) of the key space —
//     and every reassigned key moves TO the new shard; no key moves
//     between pre-existing shards. (TestRingStability asserts both.)
//   - Determinism: the ring is a pure function of (shards, vnodes), so
//     every cluster of the same shape routes identically — the
//     replica-spill property tests and any future multi-process mode
//     depend on this.
//   - Spread: with enough virtual nodes, consecutive successors of a
//     point land on distinct shards with near-uniform probability, which
//     is what makes the successor list a usable replica set.
//
// Lookups are a binary search over an immutable sorted slice — no locks,
// no allocation — so the router adds no shared mutable state to the
// request path (the per-shard engines' own mutexes stay the only locks).

import (
	"fmt"
	"sort"
)

// ringPoint is one virtual node: a position on the hash circle and the
// shard that owns it.
type ringPoint struct {
	h     uint64
	shard int
}

// ring is an immutable consistent-hash ring over `shards` shards.
type ring struct {
	points []ringPoint
	shards int
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a hashes b with FNV-1a (64-bit) and finalizes with a
// MurmurHash3-style bit mixer: stable across processes and Go versions,
// unlike maphash, so ring placement is reproducible — a property both
// the tests and any future multi-process deployment key on. The
// finalizer matters: raw FNV-1a has weak avalanche in the high-order
// bits on short inputs, and ring position is ordered by exactly those
// bits — without mixing, vnode points clump and shard ownership skews
// several-fold (TestRingSpread catches this).
func fnv1a(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// newRing builds the ring for `shards` shards with `vnodes` points each.
func newRing(shards, vnodes int) *ring {
	r := &ring{
		points: make([]ringPoint, 0, shards*vnodes),
		shards: shards,
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := fnv1a([]byte(fmt.Sprintf("shard/%d/vnode/%d", s, v)))
			r.points = append(r.points, ringPoint{h: h, shard: s})
		}
	}
	// Sort by position; break exact collisions by shard id so the ring is
	// deterministic even in the astronomically unlikely equal-hash case.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// successors appends to dst the first n distinct shards at or clockwise
// of hash h, in ring order — dst[0] is the key's home shard, the rest
// its replica candidates. n is clamped to the shard count.
func (r *ring) successors(h uint64, n int, dst []int) []int {
	if n > r.shards {
		n = r.shards
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	base := len(dst)
	for i := 0; len(dst)-base < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		dup := false
		for _, s := range dst[base:] {
			if s == p.shard {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, p.shard)
		}
	}
	return dst
}
