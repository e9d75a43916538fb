// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator for reproducible experiments. The paper's evaluation
// draws 10000 random fault placements per configuration; using a seeded
// generator of our own (rather than math/rand's global state) makes every
// table in EXPERIMENTS.md bit-for-bit reproducible across runs and Go
// versions.
//
// The core generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a
// tiny, statistically solid 64-bit generator whose state advances by a
// Weyl sequence, which makes independent substreams trivial to derive.
package xrand

import "math/bits"

// RNG is a deterministic 64-bit pseudo-random generator. The zero value is
// a valid generator seeded with 0; prefer New for explicit seeding.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Equal seeds yield identical
// streams.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// golden is 2^64 / phi, the SplitMix64 Weyl increment.
const golden = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split returns a new generator whose stream is statistically independent
// of the receiver's, derived from the receiver's next output. Splitting is
// deterministic: the same sequence of Split/Uint64 calls reproduces the
// same tree of streams.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()}
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Int63 returns a non-negative int64 uniform over [0, 2^63).
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// IntN returns a uniform int in [0, n). It panics if n <= 0. Uses
// Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("xrand: IntN with non-positive n")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order (a partial Fisher-Yates shuffle). It panics if k > n or k < 0.
// The experiments use it to draw r distinct faulty-processor addresses
// out of N.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample with k outside [0, n]")
	}
	pool := make([]int, n)
	for i := range pool {
		pool[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return append([]int(nil), pool[:k]...)
}

// NormFloat64 returns an approximately standard-normal variate using the
// sum of 12 uniforms (Irwin-Hall). Experiments only need plausible
// non-uniform key distributions, not exact tails, and this keeps the
// generator branch-free and fully deterministic.
func (r *RNG) NormFloat64() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}
