// Package xrand provides deterministic, splittable random-number streams
// for reproducible simulations.
//
// Every experiment in this repository is driven by a single root seed. The
// root stream is split into independent sub-streams (one per concern: graph
// generation, protocol coins, adversary choices, ...) so that changing how
// many random numbers one concern draws does not perturb the others. This
// makes table rows reproducible and diffable across code changes.
//
// The package wraps math/rand (stdlib only) with a SplitMix64-style seed
// derivation for splitting, which is sufficient for simulation purposes.
// It is NOT suitable for cryptographic use.
//
// A stream is one 64 B object until its 274th draw and adds the 4.9 KB
// register from then on: it draws math/rand's seeded sequence bit for
// bit but seeds lazily, computing its first 273 values straight from the
// seed and building the 607-word lagged-Fibonacci register only when
// draw 274 needs it. The source lives inside the stream, and the hot
// draws (Intn, Float64, Bernoulli, ...) run math/rand's algorithms on it
// directly; a math/rand Rand over it is built only for Perm, Shuffle and
// Exponential. Go 1 compatibility freezes math/rand's seeded sequence
// and those algorithms, and the tests compare every method against
// math/rand itself, so the streams — and every table derived from them —
// are the ones math/rand would give.
package xrand

import (
	"math/rand"
)

// Rand is a deterministic random stream. The zero value is not usable; use
// New or Split to obtain one.
type Rand struct {
	source // the lazily seeded math/rand source, drawn from directly
	seed   uint64
}

// New returns a stream seeded from seed. Two streams created with the same
// seed produce identical sequences.
func New(seed uint64) *Rand {
	seedWordsOnce.Do(initSeedWords)
	r := &Rand{seed: seed}
	r.source.Seed(int64(mix(seed)))
	return r
}

// Seed returns the seed this stream was created from.
func (r *Rand) Seed() uint64 { return r.seed }

// Split derives an independent sub-stream identified by label. Splitting is
// a pure function of (parent seed, label): it does not consume randomness
// from the parent, so the parent's future output is unaffected.
func (r *Rand) Split(label string) *Rand {
	return New(splitSeed(r.seed, label))
}

// SplitInto derives the same sub-stream Split(label) would, but re-seeds
// dst in place instead of allocating a fresh stream, and returns dst (a
// fresh stream is allocated only when dst is nil). Callers that re-derive
// the same labelled stream per event — e.g. the churn driver's per-leave
// and per-join streams — use this to keep steady-state rounds
// allocation-free while producing byte-identical draws.
func (r *Rand) SplitInto(label string, dst *Rand) *Rand {
	seed := splitSeed(r.seed, label)
	if dst == nil {
		return New(seed)
	}
	dst.Reseed(seed)
	return dst
}

// Reseed re-initializes r in place to the state New(seed) creates,
// without allocating.
func (r *Rand) Reseed(seed uint64) {
	r.seed = seed
	r.source.Seed(int64(mix(seed)))
}

// splitSeed is the pure (parent seed, label) -> child seed derivation
// shared by Split, SplitInto and SplitN.
func splitSeed(seed uint64, label string) uint64 {
	h := seed
	for _, b := range []byte(label) {
		h = mix(h ^ uint64(b))
	}
	return mix(h ^ 0x9e3779b97f4a7c15)
}

// SplitN derives an independent sub-stream identified by label and index,
// e.g. one stream per trial or per node. It produces exactly the stream
// Split(label).Split(itoa(n)) would, but derives the child seed with
// pure arithmetic instead of materializing the intermediate labelled
// stream — one allocation per call, not two, which matters when an
// engine derives a stream per node.
func (r *Rand) SplitN(label string, n int) *Rand {
	return New(splitSeed(splitSeed(r.seed, label), itoa(n)))
}

// mix is the SplitMix64 finalizer; it decorrelates nearby seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// itoa converts n to a decimal string without importing strconv (keeps the
// dependency surface of this tiny package minimal).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// The draws below are math/rand's Go 1 algorithms — frozen with its
// seeded sequence — run straight on the embedded source, so the common
// draws pay no interface dispatch and no second object.

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.int31n(int32(n)))
	}
	return int(r.int63n(int64(n)))
}

// int31n is math/rand's Int31n for n > 0: a mask for powers of two,
// otherwise rejection of the top partial multiple of n, drawing 31-bit
// values from the top of Int63.
func (r *Rand) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(r.Int63()>>32) & (n - 1)
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(r.Int63() >> 32)
	for v > limit {
		v = int32(r.Int63() >> 32)
	}
	return v % n
}

// int63n is math/rand's Int63n for n > 0.
func (r *Rand) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > limit {
		v = r.Int63()
	}
	return v % n
}

// Int63 returns a uniform non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return r.source.Int63() }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.source.Uint64() }

// Float64 returns a uniform value in [0, 1). Like math/rand's, it
// resamples the 1-in-2⁵³ draw that rounds up to 1.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns the number of fair-coin flips needed to see the first
// heads: a geometric random variable with support {1, 2, 3, ...} and
// success probability 1/2. This is the X_u variable of the geometric
// network-size estimation protocol discussed in Section 1.2 of the paper.
func (r *Rand) Geometric() int {
	flips := 1
	for r.Int63()&1 == 0 {
		flips++
	}
	return flips
}

// GeometricCapped returns min(G, cap) for a geometric random variable G
// with success probability p in (0, 1] — the number of trials up to and
// including the first success — and cap >= 1. It stops drawing once
// the count reaches cap, since the capped result needs no more trials:
// a draw costs at most cap-1 Bernoulli trials however small p is, where
// drawing G itself costs about 1/p.
func (r *Rand) GeometricCapped(p float64, cap int) int {
	if !(p > 0) { // NaN too
		panic("xrand: GeometricCapped requires p in (0, 1]")
	}
	n := 1
	for n < cap && !r.Bernoulli(p) {
		n++
	}
	return n
}

// Exponential returns an exponential random variable with rate lambda.
// Used by the support-estimation baseline.
func (r *Rand) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: Exponential requires lambda > 0")
	}
	return rand.New(&r.source).ExpFloat64() / lambda
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return rand.New(&r.source).Perm(n) }

// Shuffle permutes the n elements addressed by swap uniformly at random.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { rand.New(&r.source).Shuffle(n, swap) }

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher-Yates over an index map: O(k) memory.
	chosen := make([]int, 0, k)
	remap := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vj, ok := remap[j]
		if !ok {
			vj = j
		}
		vi, ok := remap[i]
		if !ok {
			vi = i
		}
		remap[j] = vi
		chosen = append(chosen, vj)
	}
	return chosen
}

// ID returns a uniform random 64-bit node identifier. Per the paper's model
// (Section 2), IDs are drawn from an arbitrarily large set whose size is
// unknown, so they leak no information about the network size.
func (r *Rand) ID() uint64 { return r.Uint64() }
