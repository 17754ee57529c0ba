// Package xrand provides deterministic pseudo-random primitives used by
// every generator in the repository. All experiment randomness flows
// through an RNG seeded explicitly, so a given seed reproduces a run
// bit-for-bit regardless of Go version or platform.
//
// The generator is SplitMix64 (Steele et al., "Fast splittable
// pseudorandom number generators", OOPSLA 2014): tiny state, excellent
// statistical quality for simulation workloads, and trivially splittable
// so independent sub-streams can be derived for parallel generation.
package xrand

import "math"

// RNG is a deterministic SplitMix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; prefer New.
type RNG struct {
	state uint64
}

// New returns an RNG seeded with the given seed. Distinct seeds produce
// statistically independent streams.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives a new, statistically independent RNG from r. The parent
// stream advances by one step, so repeated Split calls yield distinct
// children. Use it to hand isolated streams to parallel workers.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation would be faster but
	// the modulo bias at n << 2^64 is negligible for simulation use; keep
	// the obvious implementation for auditability.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. The method consumes a variable number of uniforms but is
// deterministic for a given stream position.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormal returns a log-normally distributed variate with the given
// parameters of the underlying normal distribution. The paper observes
// that TS/MI/RI features "appear to be log-normally distributed"; the
// synthetic generators use this to reproduce that shape.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Poisson returns a Poisson-distributed variate with mean lambda, using
// Knuth's multiplication method for small lambda and a normal
// approximation above 30 (adequate for synthetic count data).
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Shuffle pseudo-randomly permutes the first n elements using the
// Fisher-Yates algorithm, calling swap to exchange two indices.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Weighted samples indices proportionally to a fixed non-negative weight
// vector. It precomputes the CDF once, so construct it outside hot
// loops.
type Weighted struct {
	cdf []float64
	rng *RNG
}

// NewWeighted builds a sampler over len(weights) outcomes. Weights must be
// non-negative with a positive sum; it panics otherwise.
func NewWeighted(rng *RNG, weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("xrand: NewWeighted called with no weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: NewWeighted called with negative or NaN weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("xrand: NewWeighted called with zero total weight")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[len(cdf)-1] = 1
	return &Weighted{cdf: cdf, rng: rng}
}

// Clone returns a sampler over the same precomputed CDF driven by an
// independent RNG stream. It exists so concurrent generators can share
// one weight table without racing on the sampler's RNG state.
func (w *Weighted) Clone(rng *RNG) *Weighted {
	return &Weighted{cdf: w.cdf, rng: rng}
}

// Draw returns the next sampled index.
func (w *Weighted) Draw() int {
	u := w.rng.Float64()
	lo, hi := 0, len(w.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Pick returns a uniformly chosen element of items. It panics on an empty
// slice.
func Pick[T any](r *RNG, items []T) T {
	return items[r.Intn(len(items))]
}

// Sample returns k distinct elements drawn uniformly without replacement
// (reservoir sampling). If k >= len(items) a shuffled copy of all items is
// returned. The result order is unspecified but deterministic per seed.
func Sample[T any](r *RNG, items []T, k int) []T {
	if k >= len(items) {
		out := make([]T, len(items))
		copy(out, items)
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	out := make([]T, k)
	copy(out, items[:k])
	for i := k; i < len(items); i++ {
		j := r.Intn(i + 1)
		if j < k {
			out[j] = items[i]
		}
	}
	return out
}
