// Package stats provides deterministic pseudo-random number generation and
// the descriptive statistics used throughout the SATORI reproduction:
// means (arithmetic, geometric, harmonic), dispersion (variance, standard
// deviation, coefficient of variation), streaming accumulation (Welford),
// and percentile estimation.
//
// All randomness in the repository flows through stats.RNG so that every
// simulation, policy and experiment is reproducible from a single seed.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). It is intentionally not
// cryptographic; it exists so experiments replay bit-identically across
// runs and platforms.
//
// The zero value is not valid; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into the xoshiro state, as
	// recommended by the xoshiro authors to avoid correlated states.
	x := seed
	for i := range r.s {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// reduction with the rejection step ("Fast Random Integer Generation in an
// Interval", ACM TOMACS 2019): the 128-bit product of a 64-bit draw and n
// keeps its high word as the result, rejecting the few low-word values
// that would make some residues over-represented. Exactly uniform for any
// n, and rejection-free in the common case. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		// thresh = (2^64 - n) mod n: the size of the truncated
		// remainder region that must be re-drawn.
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Intns replaces each bound v[i] by Intn(v[i]), drawing in order: the
// values and the final state of calling Intn on each bound in turn, with the
// generator's state held in locals across the draws and written back once.
// It panics if a bound is not positive.
func (r *RNG) Intns(v []int) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i, b := range v {
		if b <= 0 {
			panic("stats: Intn with non-positive n")
		}
		n := uint64(b)
		for {
			x := rotl(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			// Uint64n's test: the threshold -n % n is below n, so only a
			// low word below n can be rejected.
			hi, lo := bits.Mul64(x, n)
			if lo >= n || lo >= -n%n {
				v[i] = int(hi)
				break
			}
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// NormFloat64 returns a standard normal variate (Box-Muller, polar form).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
