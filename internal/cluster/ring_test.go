package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
)

// owner returns the shard owning hash h.
func (r *ring) owner(h uint64) int {
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	return r.points[start%len(r.points)].shard
}

// testKeys returns a deterministic spread of hash points standing in for
// plan-key fingerprints.
func testKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = fnv1a([]byte(fmt.Sprintf("plan-key-%d", i)))
	}
	return keys
}

// TestRingStability is the consistent-hashing contract: growing an
// N-shard ring to N+1 shards moves roughly 1/(N+1) of the key space —
// never the wholesale reshuffle modulo hashing would cause — and every
// key that moves, moves TO the new shard (no churn between survivors).
func TestRingStability(t *testing.T) {
	const vnodes = 128
	keys := testKeys(20000)
	for n := 2; n <= 8; n++ {
		before := newRing(n, vnodes)
		after := newRing(n+1, vnodes)
		moved := 0
		for _, k := range keys {
			a, b := before.owner(k), after.owner(k)
			if a == b {
				continue
			}
			moved++
			if b != n {
				t.Fatalf("n=%d: key moved from shard %d to pre-existing shard %d; consistent hashing only moves keys to the new shard", n, a, b)
			}
		}
		frac := float64(moved) / float64(len(keys))
		want := 1.0 / float64(n+1)
		if frac > 2*want {
			t.Fatalf("n=%d: %.1f%% of keys moved, want about %.1f%% (<= 2x)", n, 100*frac, 100*want)
		}
		if moved == 0 {
			t.Fatalf("n=%d: no keys moved to the new shard; it would receive no traffic", n)
		}
	}
}

// TestRingDeterminism pins the cross-process stability promise: two
// rings of the same shape assign every key and every successor list
// identically (FNV-1a and the vnode naming scheme are fixed, so this
// can only break if someone changes them — which silently invalidates
// every persisted routing expectation).
func TestRingDeterminism(t *testing.T) {
	a, b := newRing(5, 64), newRing(5, 64)
	for _, k := range testKeys(2000) {
		sa := a.successors(k, 3, nil)
		sb := b.successors(k, 3, nil)
		if len(sa) != len(sb) {
			t.Fatalf("successor lengths diverge: %v vs %v", sa, sb)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("successors diverge for key %#x: %v vs %v", k, sa, sb)
			}
		}
	}
}

// TestRingSuccessorsDistinct checks the replica-set invariants: the
// requested count is honoured (clamped to the shard count), entries are
// pairwise distinct, and the first entry matches owner.
func TestRingSuccessorsDistinct(t *testing.T) {
	r := newRing(4, 128)
	for _, k := range testKeys(2000) {
		for n := 1; n <= 6; n++ {
			s := r.successors(k, n, nil)
			wantLen := n
			if wantLen > 4 {
				wantLen = 4
			}
			if len(s) != wantLen {
				t.Fatalf("successors(%#x, %d) returned %d shards, want %d", k, n, len(s), wantLen)
			}
			if s[0] != r.owner(k) {
				t.Fatalf("successors[0] = %d, owner = %d", s[0], r.owner(k))
			}
			seen := map[int]bool{}
			for _, sh := range s {
				if seen[sh] {
					t.Fatalf("duplicate shard %d in successors %v", sh, s)
				}
				if sh < 0 || sh >= 4 {
					t.Fatalf("shard %d out of range in %v", sh, s)
				}
				seen[sh] = true
			}
		}
	}
}

// TestRingSuccessorsAppend checks the append contract: a non-empty dst
// is preserved and the new entries are deduplicated only among
// themselves.
func TestRingSuccessorsAppend(t *testing.T) {
	r := newRing(3, 32)
	dst := []int{99}
	s := r.successors(testKeys(1)[0], 3, dst)
	if s[0] != 99 {
		t.Fatalf("append clobbered existing dst: %v", s)
	}
	if len(s) != 4 {
		t.Fatalf("appended %d entries, want 3: %v", len(s)-1, s)
	}
}

// TestRingSpread sanity-checks vnode-driven balance: over many keys, no
// shard owns more than twice its fair share.
func TestRingSpread(t *testing.T) {
	const shards = 6
	r := newRing(shards, 128)
	counts := make([]int, shards)
	keys := testKeys(30000)
	for _, k := range keys {
		counts[r.owner(k)]++
	}
	fair := len(keys) / shards
	for s, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Fatalf("shard %d owns %d of %d keys (fair share %d): spread too skewed", s, c, len(keys), fair)
		}
	}
}

// churnBackend is a Backend whose only interesting behaviour is a
// toggleable health bit — the routing-churn test below cares about
// where requests WOULD land, not what shards do with them.
type churnBackend struct{ healthy atomic.Bool }

func (b *churnBackend) Do(ctx context.Context, req engine.Request) engine.Result {
	return engine.Result{}
}
func (b *churnBackend) InjectFault(engine.Config, ...machine.Injection) error { return nil }
func (b *churnBackend) DisarmFaults(engine.Config) error                      { return nil }
func (b *churnBackend) Metrics() engine.Metrics                               { return engine.Metrics{} }
func (b *churnBackend) Healthy() bool                                         { return b.healthy.Load() }
func (b *churnBackend) Load() int64                                           { return -1 }
func (b *churnBackend) QueueWaitNs() int64                                    { return 0 }
func (b *churnBackend) Instrument(*obs.Registry)                              {}
func (b *churnBackend) Close()                                                {}

// TestRingChurnOnShardDeath is the health-aware routing contract for a
// ring whose MEMBERSHIP is fixed but whose shards die and return:
//
//   - removing one shard of N re-homes only the keys it owned — about
//     1/N of the key space — onto its ring successors; every other key
//     keeps its shard (no cascade churn among survivors);
//   - no key is ever stranded: with any single shard down, every key
//     still routes to a healthy shard without error;
//   - re-adding the shard restores the original assignment exactly.
func TestRingChurnOnShardDeath(t *testing.T) {
	const shards = 5
	backends := make([]Backend, shards)
	for i := range backends {
		be := &churnBackend{}
		be.healthy.Store(true)
		backends[i] = be
	}
	c := NewWithBackends(Options{Replicas: 1}, backends)
	defer c.Close()

	// Distinct configurations spread across the hash space: the fault
	// list feeds the canonical routing fingerprint.
	configs := make([]engine.Config, 3000)
	for i := range configs {
		configs[i] = engine.Config{Dim: 6, Faults: []cube.NodeID{cube.NodeID(i)}}
	}
	owner := func(cfg engine.Config) int {
		s, _, err := c.route(cfg)
		if err != nil {
			t.Fatalf("route(%v): %v", cfg.Faults, err)
		}
		return s.id
	}
	before := make([]int, len(configs))
	for i, cfg := range configs {
		before[i] = owner(cfg)
	}

	for dead := 0; dead < shards; dead++ {
		backends[dead].(*churnBackend).healthy.Store(false)
		moved := 0
		for i, cfg := range configs {
			got := owner(cfg) // Fatals if stranded
			if got == dead {
				t.Fatalf("key %d routed to dead shard %d", i, dead)
			}
			if before[i] == dead {
				moved++
			} else if got != before[i] {
				t.Fatalf("key %d churned between survivors: shard %d -> %d while %d was down",
					i, before[i], got, dead)
			}
		}
		if frac, want := float64(moved)/float64(len(configs)), 1.0/shards; frac > 2*want {
			t.Fatalf("shard %d down moved %.1f%% of keys, want about %.1f%%", dead, 100*frac, 100*want)
		}

		// Re-add: the original assignment must come back exactly.
		backends[dead].(*churnBackend).healthy.Store(true)
		for i, cfg := range configs {
			if got := owner(cfg); got != before[i] {
				t.Fatalf("key %d did not return home after shard %d recovered: %d != %d",
					i, dead, got, before[i])
			}
		}
	}
}

// TestRouteAllShardsDown pins the floor of the health machinery: with
// every shard unhealthy the router sheds with the saturation contract
// (engine.ErrAdmissionRejected identity → 503 + Retry-After upstream)
// instead of panicking or routing into a void.
func TestRouteAllShardsDown(t *testing.T) {
	backends := make([]Backend, 3)
	for i := range backends {
		backends[i] = &churnBackend{} // zero value: unhealthy
	}
	c := NewWithBackends(Options{Replicas: 1}, backends)
	defer c.Close()
	res := c.Do(engine.Request{Config: engine.Config{Dim: 4}, Op: engine.OpSort})
	if !errors.Is(res.Err, ErrSaturated) || !errors.Is(res.Err, engine.ErrAdmissionRejected) {
		t.Fatalf("all-down error = %v, want ErrSaturated wrapping ErrAdmissionRejected", res.Err)
	}
	if m := c.Metrics(); m.Sheds != 1 {
		t.Fatalf("Sheds = %d, want 1", m.Sheds)
	}
	if c.HealthyShards() != 0 {
		t.Fatalf("HealthyShards = %d, want 0", c.HealthyShards())
	}
}
