// Package xrand provides a small, fast, deterministic, splittable
// pseudo-random number generator used throughout fairtcim. It is the
// bottom of the layering: every sampling stage — graph generation,
// live-edge worlds, RR sketches — draws from it, and cache keys in the
// serving layer stay meaningful precisely because a (seed, parameters)
// pair reproduces the identical sample.
//
// Influence estimation is embarrassingly parallel Monte Carlo: each sampled
// "world" needs its own stream of random numbers, and the result must not
// depend on how worlds are scheduled across goroutines. xrand therefore
// exposes Split, which derives an independent child generator from a parent
// deterministically, so world i always sees the same stream regardless of
// which worker samples it.
//
// The core is splitmix64 (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014) driving a xoshiro-style
// output mix. It is not cryptographically secure; it is intended for
// reproducible simulation only.
package xrand

import "math"

// RNG is a deterministic pseudo-random number generator. The zero value is
// not usable; construct with New.
type RNG struct {
	state uint64
	gamma uint64
}

// goldenGamma is the odd constant splitmix64 uses to advance the state.
const goldenGamma = 0x9E3779B97F4A7C15

// New returns a generator seeded with seed. Two generators constructed with
// the same seed produce identical streams.
func New(seed int64) *RNG {
	return &RNG{state: mix64(uint64(seed)), gamma: mixGamma(uint64(seed) + goldenGamma)}
}

// Split derives a child generator whose stream is independent of (and
// deterministic given) the parent's current state. The parent advances by
// two steps, so repeated Split calls produce distinct children.
func (r *RNG) Split() *RNG {
	s := r.next()
	g := r.next()
	return &RNG{state: mix64(s), gamma: mixGamma(g)}
}

// SplitN derives the n'th child without advancing the parent, useful for
// indexing parallel streams: SplitN(i) is stable for a given parent state.
// It is a wrapper small enough to inline, so a child the caller keeps
// local lives on the caller's stack instead of the heap.
func (r *RNG) SplitN(n int64) *RNG {
	c := r.splitN(n)
	return &c
}

// splitN is SplitN's by-value core.
func (r *RNG) splitN(n int64) RNG {
	base := r.state + uint64(n)*r.gamma
	return RNG{state: mix64(base), gamma: mixGamma(base + goldenGamma)}
}

func (r *RNG) next() uint64 {
	r.state += r.gamma
	return r.state
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return mix64(r.next())
}

// At returns, without advancing r, the value the Uint64 call after k
// earlier ones would return: r's k-th output, counting from zero. A
// splitmix64 state only ever advances by gamma, so any output is one
// multiply and one mix away, and a caller that spends one output per
// item of a known order can recompute the draw of any single item.
func (r *RNG) At(k uint64) uint64 {
	return mix64(r.state + (k+1)*r.gamma)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits -> [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int31n returns a uniformly distributed int32 in [0, n). It panics if n <= 0.
func (r *RNG) Int31n(n int32) int32 {
	if n <= 0 {
		panic("xrand: Int31n with non-positive n")
	}
	return int32(r.Uint64() % uint64(n))
}

// Bernoulli reports true with probability p. Values of p outside [0,1] are
// clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Threshold53 converts a probability to the integer threshold consumed by
// BernoulliT. For every p, BernoulliT(Threshold53(p)) accepts exactly the
// same generator outputs as Bernoulli(p): Float64 compares the 53-bit
// draw u against p via u/2^53 < p, which for integer u is equivalent to
// u < ⌈p·2^53⌉.
func Threshold53(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// BernoulliT reports true with probability t/2^53 for t from Threshold53.
// It replaces Bernoulli's float conversion and division with one shift and
// one integer compare — the fast path for tight sampling loops over
// precomputed per-edge thresholds.
func (r *RNG) BernoulliT(t uint64) bool {
	return r.Uint64()>>11 < t
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

// Shuffle pseudo-randomizes the order of elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample with k out of range")
	}
	// Partial Fisher-Yates over an index map keeps this O(k) memory-light
	// for small k, but a full permutation is simpler and n is modest here.
	if k*4 >= n {
		p := r.Perm(n)
		return p[:k]
	}
	seen := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vj, ok := seen[j]
		if !ok {
			vj = j
		}
		vi, ok := seen[i]
		if !ok {
			vi = i
		}
		seen[j] = vi
		out[i] = vj
	}
	return out
}

// NormFloat64 returns a standard normal variate (Box-Muller; one value per
// call, the pair's second value is discarded for simplicity).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of Bernoulli(p) trials up to and including the
// first success (support {1, 2, ...}). It panics if p <= 0 or p > 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 1
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return 1 + int(math.Floor(math.Log(u)/math.Log(1-p)))
	}
}

// mix64 is the splitmix64 finalizer: a bijective 64-bit mixing function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mixGamma derives an odd gamma with enough bit transitions to keep the
// splitmix64 sequence well distributed.
func mixGamma(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD
	z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53
	z = (z ^ (z >> 33)) | 1
	if popcount(z^(z>>1)) < 24 {
		z ^= 0xAAAAAAAAAAAAAAAA
	}
	return z
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
