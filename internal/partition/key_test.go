package partition

import (
	"testing"

	"hypersort/internal/cube"
)

// keyFor canonicalizes a single-path configuration into its PlanKey.
func keyFor(dim int, faults []cube.NodeID, links [][2]cube.NodeID, model int) PlanKey {
	return keyForRouting(dim, faults, links, model, 0)
}

// keyForRouting is keyFor extended with the routing policy.
func keyForRouting(dim int, faults []cube.NodeID, links [][2]cube.NodeID, model, routing int) PlanKey {
	return PlanKey(AppendKeyRouting(nil, dim, faults, links, model, routing))
}

func TestPlanKeyCanonicalization(t *testing.T) {
	base := keyFor(6, []cube.NodeID{3, 17, 40}, [][2]cube.NodeID{{0, 1}, {5, 7}}, 0)
	cases := []struct {
		name   string
		faults []cube.NodeID
		links  [][2]cube.NodeID
	}{
		{"permuted faults", []cube.NodeID{40, 3, 17}, [][2]cube.NodeID{{0, 1}, {5, 7}}},
		{"duplicated faults", []cube.NodeID{3, 17, 40, 17, 3}, [][2]cube.NodeID{{0, 1}, {5, 7}}},
		{"permuted links", []cube.NodeID{3, 17, 40}, [][2]cube.NodeID{{5, 7}, {0, 1}}},
		{"flipped link endpoints", []cube.NodeID{3, 17, 40}, [][2]cube.NodeID{{1, 0}, {7, 5}}},
		{"duplicated links", []cube.NodeID{3, 17, 40}, [][2]cube.NodeID{{0, 1}, {5, 7}, {1, 0}}},
	}
	for _, tc := range cases {
		if got := keyFor(6, tc.faults, tc.links, 0); got != base {
			t.Errorf("%s: key %q != canonical %q", tc.name, got, base)
		}
	}
}

func TestPlanKeyDistinguishesComponents(t *testing.T) {
	base := keyFor(6, []cube.NodeID{3, 17}, [][2]cube.NodeID{{0, 1}}, 0)
	diffs := map[string]PlanKey{
		"dim":       keyFor(5, []cube.NodeID{3, 17}, [][2]cube.NodeID{{0, 1}}, 0),
		"faults":    keyFor(6, []cube.NodeID{3, 18}, [][2]cube.NodeID{{0, 1}}, 0),
		"extra":     keyFor(6, []cube.NodeID{3, 17, 40}, [][2]cube.NodeID{{0, 1}}, 0),
		"links":     keyFor(6, []cube.NodeID{3, 17}, [][2]cube.NodeID{{0, 2}}, 0),
		"no links":  keyFor(6, []cube.NodeID{3, 17}, nil, 0),
		"model":     keyFor(6, []cube.NodeID{3, 17}, [][2]cube.NodeID{{0, 1}}, 1),
		"no faults": keyFor(6, nil, [][2]cube.NodeID{{0, 1}}, 0),
	}
	for name, k := range diffs {
		if k == base {
			t.Errorf("differing %s collides with base key %q", name, base)
		}
	}
}

// TestPlanKeyAmbiguousSeparators guards the fingerprint against the
// classic concatenation trap: multi-digit components must not be able to
// re-parse as a different configuration.
func TestPlanKeyAmbiguousSeparators(t *testing.T) {
	a := keyFor(10, []cube.NodeID{1, 23}, nil, 0)
	b := keyFor(10, []cube.NodeID{12, 3}, nil, 0)
	if a == b {
		t.Fatalf("fault lists {1,23} and {12,3} collide: %q", a)
	}
	c := keyFor(10, []cube.NodeID{123}, nil, 0)
	if a == c || b == c {
		t.Fatalf("fault list {123} collides: %q %q %q", a, b, c)
	}
}

// edgesFromBits decodes a bitmask into edges of h, indexing the cube's
// canonical edge enumeration.
func edgesFromBits(h cube.Hypercube, bits uint32) [][2]cube.NodeID {
	all := h.Edges()
	var out [][2]cube.NodeID
	for i := 0; i < 32 && i < len(all); i++ {
		if bits>>uint(i)&1 == 1 {
			out = append(out, [2]cube.NodeID{all[i].A, all[i].B})
		}
	}
	return out
}

func faultsFromBits(h cube.Hypercube, bits uint32) []cube.NodeID {
	var out []cube.NodeID
	for b := 0; b < h.Size() && b < 32; b++ {
		if bits>>uint(b)&1 == 1 {
			out = append(out, cube.NodeID(b))
		}
	}
	return out
}

// rotate returns xs rotated left by k — a cheap fuzzer-driven
// permutation of the listing order.
func rotate[T any](xs []T, k int) []T {
	if len(xs) == 0 {
		return xs
	}
	k %= len(xs)
	return append(append([]T(nil), xs[k:]...), xs[:k]...)
}

// FuzzPlanKey proves the cache fingerprint is injective on valid
// configurations: two configurations produce the same PlanKey exactly
// when they describe the same machine (same dimension, fault set,
// link-fault set, and model), regardless of listing order. Run with
// `go test -fuzz=FuzzPlanKey ./internal/partition`.
func FuzzPlanKey(f *testing.F) {
	// Seeds: identical sets listed in permuted order (must collide), and
	// near-miss pairs differing in exactly one component (must not).
	f.Add(uint8(4), uint32(0b1001_0110), uint32(0b11), uint8(0), uint32(0b1001_0110), uint32(0b11), uint8(0), uint8(3))
	f.Add(uint8(4), uint32(0b1001_0110), uint32(0), uint8(0), uint32(0b0110_1001), uint32(0), uint8(0), uint8(1))
	f.Add(uint8(5), uint32(0x80000001), uint32(0b101), uint8(1), uint32(0x80000001), uint32(0b101), uint8(0), uint8(0))
	f.Add(uint8(3), uint32(0b111), uint32(0), uint8(0), uint32(0b110), uint32(0), uint8(0), uint8(2))
	f.Add(uint8(5), uint32(0), uint32(0b1), uint8(0), uint32(0), uint32(0b10), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, dimRaw uint8, fA, lA uint32, mA uint8, fB, lB uint32, mB uint8, rot uint8) {
		n := 3 + int(dimRaw)%3 // Q_3..Q_5
		h := cube.New(n)
		faultsA, faultsB := faultsFromBits(h, fA), faultsFromBits(h, fB)
		linksA, linksB := edgesFromBits(h, lA), edgesFromBits(h, lB)
		modelA, modelB := int(mA)%2, int(mB)%2

		keyA := keyFor(n, faultsA, linksA, modelA)
		keyB := keyFor(n, faultsB, linksB, modelB)

		equalCfg := modelA == modelB &&
			nodeSetEqual(cube.NewNodeSet(faultsA...), cube.NewNodeSet(faultsB...)) &&
			edgeListEqual(linksA, linksB)
		if equalCfg && keyA != keyB {
			t.Fatalf("equal configurations, different keys: %q vs %q", keyA, keyB)
		}
		if !equalCfg && keyA == keyB {
			t.Fatalf("distinct configurations collide on %q (faults %v vs %v, links %v vs %v, model %d vs %d)",
				keyA, faultsA, faultsB, linksA, linksB, modelA, modelB)
		}

		// Listing order must never matter: rotate the slices and flip
		// every link's endpoints.
		permFaults := rotate(faultsA, int(rot))
		permLinks := rotate(linksA, int(rot))
		for i := range permLinks {
			permLinks[i][0], permLinks[i][1] = permLinks[i][1], permLinks[i][0]
		}
		if got := keyFor(n, permFaults, permLinks, modelA); got != keyA {
			t.Fatalf("permuted listing changed key: %q vs %q", got, keyA)
		}
	})
}

func nodeSetEqual(a, b cube.NodeSet) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b.Has(id) {
			return false
		}
	}
	return true
}

func edgeListEqual(a, b [][2]cube.NodeID) bool {
	es := func(xs [][2]cube.NodeID) cube.EdgeSet {
		s := cube.NewEdgeSet()
		for _, p := range xs {
			s.Add(p[0], p[1])
		}
		return s
	}
	sa, sb := es(a), es(b)
	if len(sa) != len(sb) {
		return false
	}
	for e := range sa {
		if !sb.Has(e.A, e.B) {
			return false
		}
	}
	return true
}
