package core

import (
	"fmt"

	"hypersort/internal/machine"
)

// CostEstimate evaluates the paper's §3 closed-form worst-case time T for
// sorting M keys on Q_n partitioned into F_n^m, in the units of the given
// cost model (t_c = Cost.Compare, t_s/r = Cost.Elem; the closed form has
// no startup term).
//
// With k = ceil(M/N'), N' = 2^n - 2^m working processors (2^n when no
// processor is dead), s = n - m:
//
//	T = [(k-1)*ceil(log2 k) + 1] * t_c                    (Step 3 heapsort)
//	  + S * B                                             (Step 3 bitonic)
//	  + (m(m+1)/2) * [ (s+1)*k*t_s/r                      (Steps 7a+7b comm)
//	                 + (ceil(k/2)-1)*t_c                  (Step 7b compare)
//	                 + (k-1)*t_c                          (Step 7c merge)
//	                 + S * B ]                            (Step 8 bitonic)
//
// where S = s(s+1)/2 is the number of compare-exchange steps of a bitonic
// sort over a 2^s-node subcube and B = k*t_s/r + (ceil(3k/2)-1)*t_c is the
// per-step cost (k keys moved, ceil(k/2) compare-split comparisons plus a
// k-way merge).
//
// Note: the paper's printed formula shows loop factors s(s+3)/2 and
// m(m+3)/2; a bitonic sort over 2^s nodes performs exactly s(s+1)/2
// compare-exchange steps and Steps 4/6 iterate m(m+1)/2 times, so we use
// the exact counts (the source text of the formula is OCR-garbled in
// several terms; the derivation in the prose fixes the per-step costs
// used here).
func CostEstimate(mKeys, n, mcut int, dead bool, c machine.CostModel) (machine.Time, error) {
	if n < 0 || mcut < 0 || mcut > n {
		return 0, fmt.Errorf("core: invalid dimensions n=%d m=%d", n, mcut)
	}
	if mKeys < 0 {
		return 0, fmt.Errorf("core: negative key count %d", mKeys)
	}
	nWork := int64(1)<<n - boolInt(dead)<<mcut
	if nWork <= 0 {
		return 0, fmt.Errorf("core: no working processors (n=%d, m=%d)", n, mcut)
	}
	k := ceilDiv(int64(mKeys), nWork)
	if k == 0 {
		k = 1
	}
	s := int64(n - mcut)
	tc, tsr := int64(c.Compare), int64(c.Elem)

	heap := ((k-1)*ceilLog2(k) + 1) * tc
	perStep := k*tsr + (ceilDiv(3*k, 2)-1)*tc
	intra := s * (s + 1) / 2 * perStep
	m64 := int64(mcut)
	cross := (s+1)*k*tsr + (ceilDiv(k, 2)-1)*tc + (k-1)*tc + intra
	total := heap + intra + m64*(m64+1)/2*cross
	return machine.Time(total), nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// ceilLog2 returns ceil(log2 k) for k >= 1.
func ceilLog2(k int64) int64 {
	var log int64
	for v := k - 1; v > 0; v >>= 1 {
		log++
	}
	return log
}
