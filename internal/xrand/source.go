package xrand

import (
	"math/rand"
	"sync"
)

// math/rand's default Source is an additive lagged-Fibonacci generator
// (Mitchell & Reeds): draw k is y[k] = y[k−607] + y[k−273] mod 2⁶⁴ over
// a 607-word register, and Seed fills that register from a Park–Miller
// sequence x ← 48271·x mod (2³¹−1), XORing each word with a fixed
// "cooked" constant. Go 1 compatibility freezes the seeded sequence, so
// source below reproduces it bit for bit while deferring the register.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// seedWord holds what register word i needs besides the seed: Seed sets
// word i to (x₁<<40) ^ (x₂<<20) ^ x₃ ^ cooked, where x_t is the seed
// times pow[t] mod 2³¹−1.
type seedWord struct {
	pow    [3]uint32
	cooked uint64
}

var (
	seedWords     [rngLen]seedWord
	seedWordsOnce sync.Once
)

// initSeedWords fills seedWords. It runs on the first newSource, not at
// package init, so its tens of microseconds land on the first stream a
// program derives instead of on every program's start-up.
func initSeedWords() {
	// Seed discards 20 Park–Miller steps, then spends three per word.
	x := uint64(1)
	for range 20 {
		x = x * 48271 % int32max
	}
	for i := range seedWords {
		for t := range seedWords[i].pow {
			x = x * 48271 % int32max
			seedWords[i].pow[t] = uint32(x)
		}
	}

	// Recover the cooked constants from math/rand itself: 607 draws write
	// every register word exactly once, so undoing them newest first
	// (word[feed] -= word[tap]) restores the seeded register, and XORing
	// off the seed terms leaves the constants.
	const refSeed = 1
	ref := rand.New(rand.NewSource(refSeed))
	feed := func(k int) int { return (2*rngLen - rngTap - k) % rngLen } // word draw k writes
	var reg [rngLen]uint64
	for k := 1; k <= rngLen; k++ {
		reg[feed(k)] = ref.Uint64()
	}
	for k := rngLen; k >= 1; k-- {
		reg[feed(k)] -= reg[(feed(k)+rngTap)%rngLen]
	}
	for i := range reg {
		seedWords[i].cooked = reg[i] ^ seedTerms(refSeed, i)
	}
}

// seedTerms is register word i as Seed(seed) leaves it, before the
// cooked XOR; seed is already reduced to [1, 2³¹−2].
func seedTerms(seed uint64, i int) uint64 {
	p := &seedWords[i].pow
	return seed*uint64(p[0])%int32max<<40 ^
		seed*uint64(p[1])%int32max<<20 ^
		seed*uint64(p[2])%int32max
}

// source is a rand.Source64 whose output equals rand.NewSource's for
// every seed and call sequence, but whose Seed is O(1). Draw k ≤ 273
// after a Seed reads only register words no earlier draw has written,
// so it is computed straight from the seed; the 4.9 KB register is
// built on draw 274 and kept for reuse across later Seeds. A stream that
// never reaches draw 274 costs its 48-byte struct.
type source struct {
	vec   []int64 // the register; nil until the first materialization
	feed  int     // as in math/rand once materialized; −1 while lazy
	drawn int     // draws served since Seed while lazy
	seed  uint64  // reduced seed, in [1, 2³¹−2]
}

func newSource(seed int64) *source {
	seedWordsOnce.Do(initSeedWords)
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed resets the stream to rand.NewSource(seed)'s, with that
// function's reduction of seed modulo 2³¹−1.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.feed, s.drawn = -1, 0
}

// Uint64 returns the next value of the sequence. Its fast path is
// math/rand's step, with the tap index derived from feed (math/rand
// keeps tap = feed + 273 mod 607 in a second field). A lazy stream parks
// feed at −1, so its decrement lands at −2, below the −1 a materialized
// stream reaches when it wraps: the rare wrap branch is the only place
// laziness is tested, and warm draws never pay for it.
func (s *source) Uint64() uint64 {
	s.feed--
	if s.feed < 0 {
		if s.feed < -1 {
			return s.lazy()
		}
		s.feed += rngLen
	}
	tap := s.feed + rngTap
	if tap >= rngLen {
		tap -= rngLen
	}
	x := s.vec[s.feed] + s.vec[tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value with its top bit cleared, as math/rand's
// source does. It repeats Uint64's body rather than calling it: Uint64
// is too large to inline, and the extra call would make every warm
// Int63 dearer than math/rand's.
func (s *source) Int63() int64 {
	s.feed--
	if s.feed < 0 {
		if s.feed < -1 {
			return int64(s.lazy() & rngMask)
		}
		s.feed += rngLen
	}
	tap := s.feed + rngTap
	if tap >= rngLen {
		tap -= rngLen
	}
	x := s.vec[s.feed] + s.vec[tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// lazy serves draw k = drawn+1 before the register exists: it adds the
// seeded words 334−k and 607−k. Draw 274 would read word 333, which draw
// 1 overwrote, so it materializes the register first.
func (s *source) lazy() uint64 {
	if s.drawn == rngTap {
		s.materialize()
		return s.Uint64()
	}
	s.feed = -1
	s.drawn++
	k := s.drawn
	return s.word(rngLen-rngTap-k) + s.word(rngLen-k)
}

// word is register word i as Seed leaves it.
func (s *source) word(i int) uint64 {
	return seedTerms(s.seed, i) ^ seedWords[i].cooked
}

// materialize builds the register the lazy draws served so far would
// have left, reusing the buffer of an earlier materialization.
func (s *source) materialize() {
	if s.vec == nil {
		s.vec = make([]int64, rngLen)
	}
	for i := range s.vec {
		s.vec[i] = int64(s.word(i))
	}
	// Lazy draw k wrote y[k] = word[334−k] + word[607−k] into word 334−k;
	// no draw since has read those words, so the order is free.
	s.feed = rngLen - rngTap - s.drawn
	for i := s.feed; i < rngLen-rngTap; i++ {
		s.vec[i] += s.vec[i+rngTap]
	}
}
