// Package workload generates the key distributions the experiments sort
// and handles splitting a key stream over the working processors of a
// (possibly faulty) hypercube, padding with dummy keys the way the paper
// prescribes ("some dummy keys (∞) will be filled in processors if the
// distribution of each processor is not uniform").
package workload

import (
	"fmt"
	"sort"

	"hypersort/internal/sortutil"
	"hypersort/internal/xrand"
)

// Kind names a key distribution.
type Kind string

// The supported distributions. Uniform is what the paper's simulation
// uses; the others exercise the sort on adversarial and structured inputs.
const (
	Uniform      Kind = "uniform"       // i.i.d. uniform over a wide range
	Gaussian     Kind = "gaussian"      // bell-shaped (Irwin-Hall)
	Sorted       Kind = "sorted"        // already ascending
	ReverseOrder Kind = "reverse"       // descending
	NearlySorted Kind = "nearly-sorted" // ascending with sparse swaps
	FewDistinct  Kind = "few-distinct"  // heavy duplication (16 values)
	ZipfLite     Kind = "zipf-lite"     // skewed toward small keys
)

// Kinds lists every distribution, in a stable order for sweeps.
func Kinds() []Kind {
	return []Kind{Uniform, Gaussian, Sorted, ReverseOrder, NearlySorted, FewDistinct, ZipfLite}
}

// Generate produces m keys of the given distribution from r. It returns
// an error for unknown kinds so CLI flag plumbing can report typos.
func Generate(kind Kind, m int, r *xrand.RNG) ([]sortutil.Key, error) {
	if m < 0 {
		return nil, fmt.Errorf("workload: negative element count %d", m)
	}
	xs := make([]sortutil.Key, m)
	switch kind {
	case Uniform:
		for i := range xs {
			xs[i] = sortutil.Key(r.Int63() % (1 << 40))
		}
	case Gaussian:
		for i := range xs {
			xs[i] = sortutil.Key(r.NormFloat64() * 1e6)
		}
	case Sorted:
		fillUniform(xs, r)
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	case ReverseOrder:
		fillUniform(xs, r)
		sort.Slice(xs, func(i, j int) bool { return xs[i] > xs[j] })
	case NearlySorted:
		fillUniform(xs, r)
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		// Perturb ~2% of positions with local swaps.
		for k := 0; k < m/50; k++ {
			i := r.IntN(m)
			j := i + 1 + r.IntN(8)
			if j >= m {
				j = m - 1
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
	case FewDistinct:
		for i := range xs {
			xs[i] = sortutil.Key(r.IntN(16))
		}
	case ZipfLite:
		// P(k) proportional to 1/(k+1): inverse-CDF over a small table.
		for i := range xs {
			u := r.Float64()
			k := 0
			cum, norm := 0.0, 0.0
			for j := 1; j <= 64; j++ {
				norm += 1 / float64(j)
			}
			for j := 1; j <= 64; j++ {
				cum += 1 / float64(j) / norm
				if u <= cum {
					k = j - 1
					break
				}
			}
			xs[i] = sortutil.Key(k)
		}
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q", kind)
	}
	return xs, nil
}

// MustGenerate is Generate for statically known kinds; it panics on error.
func MustGenerate(kind Kind, m int, r *xrand.RNG) []sortutil.Key {
	xs, err := Generate(kind, m, r)
	if err != nil {
		panic(err)
	}
	return xs
}

func fillUniform(xs []sortutil.Key, r *xrand.RNG) {
	for i := range xs {
		xs[i] = sortutil.Key(r.Int63() % (1 << 40))
	}
}

// Distribute splits keys round-robin-by-block over p processors, padding
// every share with Inf dummies to the common size ceil(m/p). This is the
// paper's Step 2: the host hands each working processor floor(M/N')
// elements, with dummies absorbing the remainder. The returned shares all
// have equal length; share i receives the keys [i*q, (i+1)*q) where q is
// the padded share size.
func Distribute(keys []sortutil.Key, p int) ([][]sortutil.Key, error) {
	_, shares, err := DistributeInto(nil, nil, keys, p)
	return shares, err
}

// DistributeInto is Distribute with caller-controlled allocation: the
// shares are carved from backing and the share headers written into
// shares, both grown only when too small. The returned backing and
// shares must replace the caller's (they may have been reallocated).
// Serving paths that redistribute fresh keys over the same processor
// count on every request reuse one arena instead of allocating two
// objects per call.
func DistributeInto(backing []sortutil.Key, shares [][]sortutil.Key, keys []sortutil.Key, p int) ([]sortutil.Key, [][]sortutil.Key, error) {
	if p <= 0 {
		return backing, shares, fmt.Errorf("workload: cannot distribute over %d processors", p)
	}
	q := (len(keys) + p - 1) / p
	if q == 0 {
		q = 1 // every processor holds at least one (dummy) slot
	}
	// One backing array for all shares: the shares are owned by the
	// caller (kernels mutate them in place), and full slice expressions
	// keep an append on one share from bleeding into the next.
	if cap(backing) < p*q {
		backing = make([]sortutil.Key, p*q)
	} else {
		backing = backing[:p*q]
	}
	n := copy(backing, keys)
	for i := n; i < len(backing); i++ {
		backing[i] = sortutil.Inf
	}
	if cap(shares) < p {
		shares = make([][]sortutil.Key, p)
	} else {
		shares = shares[:p]
	}
	for i := 0; i < p; i++ {
		shares[i] = backing[i*q : (i+1)*q : (i+1)*q]
	}
	return backing, shares, nil
}
