// Package maxsubcube implements the reconfiguration baseline the paper
// compares against: Özgüner & Aykanat's maximum dimensional fault-free
// subcube method (Information Processing Letters 29(5), 1988). When r
// faults appear in Q_n, the method finds a largest subcube containing no
// faulty processor and runs the unmodified algorithm there, idling every
// processor outside it (the paper's "dangling processors").
package maxsubcube

import "hypersort/internal/cube"

// Find returns a maximum-dimensional fault-free subcube of Q_n and its
// dimension. Among equal-dimensional candidates the lexicographically
// first (by fixed-dimension combination, then by fixed coordinates) is
// returned, making results deterministic. With no faults the whole cube
// is returned; if every processor is faulty the dimension is -1 and the
// zero Subcube is returned.
//
// The search enumerates all C(n, n-k)*2^(n-k) subcubes of dimension k
// for k = n down to 0 — exact and exhaustive, matching the baseline's
// offline reconfiguration step (the paper's experiments have n <= 6, so
// the 3^n total candidates are trivial).
func Find(h cube.Hypercube, faults cube.NodeSet) (cube.Subcube, int) {
	if len(faults) == 0 {
		return cube.WholeCube(), h.Dim()
	}
	for k := h.Dim(); k >= 0; k-- {
		for _, sc := range cube.EnumerateSubcubes(h, k) {
			if faultFree(sc, faults) {
				return sc, k
			}
		}
	}
	return cube.Subcube{}, -1
}

// faultFree reports whether no fault lies inside sc.
func faultFree(sc cube.Subcube, faults cube.NodeSet) bool {
	for f := range faults {
		if sc.Contains(f) {
			return false
		}
	}
	return true
}

// Utilization returns the baseline's processor utilization for Table 2:
// the 2^k processors of the chosen subcube as a fraction of the N-r
// healthy processors.
func Utilization(h cube.Hypercube, faults cube.NodeSet) float64 {
	healthy := h.Size() - len(faults)
	if healthy <= 0 {
		return 0
	}
	_, k := Find(h, faults)
	if k < 0 {
		return 0
	}
	return float64(int(1)<<k) / float64(healthy)
}
