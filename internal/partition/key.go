package partition

import (
	"slices"
	"strconv"

	"hypersort/internal/cube"
)

// PlanKey is a canonical fingerprint of a sorter configuration: the
// hypercube dimension, the fault set, the link-fault set, and the fault
// model. Two configurations that describe the same machine — regardless
// of the order (or duplication) in which faults and link faults are
// listed, or the orientation of link endpoints — map to the same key, and
// two configurations that differ in any of the four components map to
// different keys. Plan and machine caches use it as their map key.
//
// The key is a readable string ("n6|md0|f3,17|l0-1,5-7"), so it doubles
// as a log/metrics label for a configuration.
type PlanKey string

// AppendKeyRouting appends the canonical fingerprint of a configuration
// to dst and returns the extended slice. Faults are deduplicated and
// sorted; link faults have each endpoint pair oriented low-high, then are
// deduplicated and sorted lexicographically. model and routing are the
// fault model and routing policy as integers (the package cannot import
// internal/machine without a cycle; callers pass int(cfg.Model) and
// int(cfg.Routing)). Policy 0 — the legacy single-path discipline —
// appends nothing, so every pre-multipath key (and therefore every
// cached plan, pool, and cluster ring position for default
// configurations) is unchanged by the routing field.
//
// The caller controls allocation: request paths that fingerprint a
// configuration per call build the key in a pooled buffer and intern the
// durable string once, instead of paying the string construction on
// every lookup. For typical fault counts the canonicalization scratch
// lives on the stack.
//
// AppendKeyRouting is a pure fingerprint: it does not validate that
// fault addresses lie inside Q_dim or that link pairs are hypercube
// edges — validation belongs to the plan and machine constructors. On
// the set of valid configurations the mapping is injective (see
// FuzzPlanKey).
func AppendKeyRouting(dst []byte, dim int, faults []cube.NodeID, links [][2]cube.NodeID, model, routing int) []byte {
	dst = append(dst, 'n')
	dst = strconv.AppendInt(dst, int64(dim), 10)
	dst = append(dst, "|md"...)
	dst = strconv.AppendInt(dst, int64(model), 10)
	dst = append(dst, "|f"...)

	var fstack [32]cube.NodeID
	fs := fstack[:0]
	if len(faults) > cap(fs) {
		fs = make([]cube.NodeID, 0, len(faults))
	}
	fs = append(fs, faults...)
	slices.Sort(fs)
	fs = slices.Compact(fs)
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(f), 10)
	}

	dst = append(dst, "|l"...)
	type edge struct{ a, b cube.NodeID }
	var estack [16]edge
	es := estack[:0]
	if len(links) > cap(es) {
		es = make([]edge, 0, len(links))
	}
	for _, pair := range links {
		e := edge{pair[0], pair[1]}
		if e.a > e.b {
			e.a, e.b = e.b, e.a
		}
		es = append(es, e)
	}
	slices.SortFunc(es, func(x, y edge) int {
		if x.a != y.a {
			return int(x.a) - int(y.a)
		}
		return int(x.b) - int(y.b)
	})
	es = slices.Compact(es)
	for i, e := range es {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(e.a), 10)
		dst = append(dst, '-')
		dst = strconv.AppendInt(dst, int64(e.b), 10)
	}
	if routing != 0 {
		dst = append(dst, "|r"...)
		dst = strconv.AppendInt(dst, int64(routing), 10)
	}
	return dst
}
