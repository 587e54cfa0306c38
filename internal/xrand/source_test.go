package xrand

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// edgeSeeds exercise Seed's reduction modulo 2³¹−1: zero and its
// substitute, negatives, exact multiples of the modulus (which reduce to
// zero), and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 42, 89482311, int32max - 1, int32max, int32max + 1,
	-int32max, -int32max - 1, 3 * int32max, -5 * int32max,
	int32max * (1<<32 + 2), // 2⁶³−2, the largest multiple in int64
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// drawCounts straddle the lazy/materialized boundary at draw 274 and the
// register's 607-draw wrap.
var drawCounts = []int{0, 1, 272, 273, 274, 275, 606, 607, 608, 880, 2000}

// TestSourceMatchesStdlibSeeds compares raw Uint64/Int63 sequences of
// the lazy source against math/rand's source, across edge seeds and
// alternating call kinds.
func TestSourceMatchesStdlibSeeds(t *testing.T) {
	for _, seed := range edgeSeeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for k := 1; k <= 2*rngLen; k++ {
			if k%3 == 0 {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, k, g, w)
				}
				continue
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, k, g, w)
			}
		}
	}
}

// newSource returns a lazy source seeded as rand.NewSource(seed) is.
func newSource(seed int64) *source {
	seedWordsOnce.Do(initSeedWords)
	s := new(source)
	s.Seed(seed)
	return s
}

// refRand is the stream type xrand had before its draws ran on the
// embedded lazy source: the same API over a *rand.Rand on math/rand's
// own source, every draw delegated to math/rand. It is the reference
// every differential test compares *Rand against.
type refRand struct{ src *rand.Rand }

// stdlibStream is the reference for the stream New(seed) returns.
func stdlibStream(seed uint64) *refRand {
	return &refRand{src: rand.New(rand.NewSource(int64(mix(seed))))}
}

func (r *refRand) Reseed(seed uint64) { r.src.Seed(int64(mix(seed))) }

func (r *refRand) Intn(n int) int                     { return r.src.Intn(n) }
func (r *refRand) Int63() int64                       { return r.src.Int63() }
func (r *refRand) Uint64() uint64                     { return r.src.Uint64() }
func (r *refRand) ID() uint64                         { return r.src.Uint64() }
func (r *refRand) Float64() float64                   { return r.src.Float64() }
func (r *refRand) Perm(n int) []int                   { return r.src.Perm(n) }
func (r *refRand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

func (r *refRand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

func (r *refRand) Geometric() int {
	flips := 1
	for r.src.Int63()&1 == 0 {
		flips++
	}
	return flips
}

func (r *refRand) GeometricCapped(p float64, cap int) int {
	if p <= 0 {
		panic("xrand: GeometricCapped requires p in (0, 1]")
	}
	n := 1
	for n < cap && !r.Bernoulli(p) {
		n++
	}
	return n
}

func (r *refRand) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: Exponential requires lambda > 0")
	}
	return r.src.ExpFloat64() / lambda
}

func (r *refRand) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	chosen := make([]int, 0, k)
	remap := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + r.src.Intn(n-i)
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

// stream is the draw API *Rand and its reference share.
type stream interface {
	Reseed(seed uint64)
	Intn(n int) int
	Int63() int64
	Uint64() uint64
	ID() uint64
	Float64() float64
	Bernoulli(p float64) bool
	Geometric() int
	GeometricCapped(p float64, cap int) int
	Exponential(lambda float64) float64
	Perm(n int) []int
	Shuffle(n int, swap func(i, j int))
	Sample(n, k int) []int
}

// streamOps covers every xrand draw, each reduced to a comparable value.
var streamOps = []struct {
	name string
	draw func(r stream) uint64
}{
	{"Uint64", func(r stream) uint64 { return r.Uint64() }},
	{"Int63", func(r stream) uint64 { return uint64(r.Int63()) }},
	{"ID", func(r stream) uint64 { return r.ID() }},
	{"Intn/pow2", func(r stream) uint64 { return uint64(r.Intn(1024)) }},
	{"Intn/odd", func(r stream) uint64 { return uint64(r.Intn(1000003)) }},
	{"Intn/big", func(r stream) uint64 { return uint64(r.Intn(math.MaxInt / 3)) }}, // Int63n path on 64-bit
	{"Float64", func(r stream) uint64 { return math.Float64bits(r.Float64()) }},
	{"Bernoulli", func(r stream) uint64 {
		if r.Bernoulli(0.3) {
			return 1
		}
		return 0
	}},
	{"Geometric", func(r stream) uint64 { return uint64(r.Geometric()) }},
	{"GeometricCapped", func(r stream) uint64 { return uint64(r.GeometricCapped(0.2, 6)) }},
	{"Exponential", func(r stream) uint64 { return math.Float64bits(r.Exponential(2)) }},
	{"Perm", func(r stream) uint64 { return fold(r.Perm(9)) }},
	{"Shuffle", func(r stream) uint64 {
		var swaps []int
		r.Shuffle(9, func(i, j int) { swaps = append(swaps, i, j) })
		return fold(swaps)
	}},
	{"Sample", func(r stream) uint64 { return fold(r.Sample(50, 4)) }},
}

// fold hashes a slice of small ints into one comparable value.
func fold(xs []int) uint64 {
	h := uint64(len(xs))
	for _, x := range xs {
		h = h*1000003 + uint64(x)
	}
	return h
}

// TestStreamMatchesStdlib is the table-driven differential test: for
// many seeds, every op run for every draw count must match the
// math/rand-backed reference (refRand), and so must a round-robin over all ops
// that keeps drawing past the materialization point.
func TestStreamMatchesStdlib(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		for _, op := range streamOps {
			for _, n := range drawCounts {
				got, want := New(seed), stdlibStream(seed)
				for k := 0; k < n; k++ {
					if g, w := op.draw(got), op.draw(want); g != w {
						t.Fatalf("seed %d %s call %d/%d: %d, math/rand %d", seed, op.name, k+1, n, g, w)
					}
				}
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d after %d %s calls: next Uint64 %d, math/rand %d", seed, n, op.name, g, w)
				}
			}
		}
		got, want := New(seed), stdlibStream(seed)
		for k := 0; k < 200; k++ {
			op := streamOps[k%len(streamOps)]
			if g, w := op.draw(got), op.draw(want); g != w {
				t.Fatalf("seed %d round-robin call %d (%s): %d, math/rand %d", seed, k, op.name, g, w)
			}
		}
	}
}

// TestReseedMidStream reseeds both streams at every draw count,
// including after the register has been materialized (so the rebuilt
// state must not leak the previous seed's words), and again after a
// second materialization.
func TestReseedMidStream(t *testing.T) {
	for _, cut := range drawCounts {
		got, want := New(5), stdlibStream(5)
		for k := 0; k < cut; k++ {
			got.Uint64()
			want.Uint64()
		}
		for round, next := range []uint64{6, 5, 6} {
			got.Reseed(next)
			want.Reseed(next)
			for k := 1; k <= rngLen+rngTap; k++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("cut %d reseed %d (seed %d) draw %d: %d, math/rand %d", cut, round, next, k, g, w)
				}
			}
		}
	}
}

// FuzzSourceMatchesStdlib drives math/rand's source and the lazy source
// through the same fuzzer-chosen program of Seed and draw calls. Each
// instruction is an opcode byte and its operand bytes (missing bytes
// read as zero):
//
//	0 Seed(int64 from 8 bytes)   1 Int63 ×(b+1)        2 Uint64 ×(b+1)
//	3 Intn(4 bytes mod 2³¹−1, + 1)                    4 Float64 ×(b+1)
//	5 ExpFloat64 ×(b+1)          6 NormFloat64 ×(b+1)  7 Perm(b)
//	8 Shuffle(b)
//
// A tail of 607 draws then catches any divergence the program's last
// calls left in the state.
func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newSource(seed))
		p := program(prog)
		for len(p) > 0 {
			switch op := p.next() % 9; op {
			case 0:
				s := int64(p.operand(8))
				want.Seed(s)
				got.Seed(s)
			case 3:
				n := int(p.operand(4)%math.MaxInt32) + 1
				same(t, seed, "Intn", got.Intn(n), want.Intn(n))
			case 7:
				n := int(p.next())
				same(t, seed, "Perm", fold(got.Perm(n)), fold(want.Perm(n)))
			case 8:
				n := int(p.next())
				var gs, ws []int
				got.Shuffle(n, func(i, j int) { gs = append(gs, i, j) })
				want.Shuffle(n, func(i, j int) { ws = append(ws, i, j) })
				same(t, seed, "Shuffle", fold(gs), fold(ws))
			default:
				for range int(p.next()) + 1 {
					switch op {
					case 1:
						same(t, seed, "Int63", got.Int63(), want.Int63())
					case 2:
						same(t, seed, "Uint64", got.Uint64(), want.Uint64())
					case 4:
						same(t, seed, "Float64", got.Float64(), want.Float64())
					case 5:
						same(t, seed, "ExpFloat64", got.ExpFloat64(), want.ExpFloat64())
					case 6:
						same(t, seed, "NormFloat64", got.NormFloat64(), want.NormFloat64())
					}
				}
			}
		}
		for range rngLen {
			same(t, seed, "tail Uint64", got.Uint64(), want.Uint64())
		}
	})
}

// FuzzRandMatchesStdlib drives a *Rand and its math/rand reference
// (refRand) through the same fuzzer-chosen program of Reseed and draw
// calls, reaching the draws that run math/rand's algorithms on the
// embedded source directly. Each instruction is an opcode byte and its
// operand bytes (missing bytes read as zero):
//
//	0 Reseed(8 bytes)             1 Intn(int from 8 bytes, any sign)
//	2 Float64 ×(b+1)              3 Bernoulli(int8(b)/100) ×(c+1)
//	4 Geometric ×(b+1)            5 GeometricCapped(int8(b)/64, c+1)
//	6 Sample(n=b, k=int8(c) mod (n+2))  7 Int63 ×(b+1)
//
// Intn's operand covers n <= 0 (which must panic as math/rand does),
// the rejection loop of non-powers of two near 2³¹−1 and the Int63n
// path above it; a panic must match the reference's, and leaves both
// streams undrawn. A tail of 607 draws then catches any divergence the
// program's last calls left in the state.
func FuzzRandMatchesStdlib(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		got, want := New(seed), stdlibStream(seed)
		p := program(prog)
		for len(p) > 0 {
			switch op := p.next() % 8; op {
			case 0:
				s := p.operand(8)
				got.Reseed(s)
				want.Reseed(s)
			case 1:
				n := int(int64(p.operand(8)))
				sameCall(t, seed, fmt.Sprintf("Intn(%d)", n), got, want, func(r stream) int { return r.Intn(n) })
			case 3:
				prob := float64(int8(p.next())) / 100
				for range int(p.next()) + 1 {
					sameCall(t, seed, fmt.Sprintf("Bernoulli(%g)", prob), got, want, func(r stream) bool { return r.Bernoulli(prob) })
				}
			case 5:
				prob := float64(int8(p.next())) / 64
				capped := int(p.next()) + 1
				sameCall(t, seed, fmt.Sprintf("GeometricCapped(%g, %d)", prob, capped), got, want, func(r stream) int { return r.GeometricCapped(prob, capped) })
			case 6:
				n := int(p.next())
				k := int(int8(p.next())) % (n + 2)
				sameCall(t, seed, fmt.Sprintf("Sample(%d, %d)", n, k), got, want, func(r stream) uint64 { return fold(r.Sample(n, k)) })
			default:
				for range int(p.next()) + 1 {
					switch op {
					case 2:
						same(t, int64(seed), "Float64", got.Float64(), want.Float64())
					case 4:
						same(t, int64(seed), "Geometric", got.Geometric(), want.Geometric())
					case 7:
						same(t, int64(seed), "Int63", got.Int63(), want.Int63())
					}
				}
			}
		}
		for range rngLen {
			same(t, int64(seed), "tail Uint64", got.Uint64(), want.Uint64())
		}
	})
}

// sameCall runs call on both streams and fails the fuzz run unless they
// return the same value or panic with the same value.
func sameCall[T comparable](t *testing.T, seed uint64, op string, got, want stream, call func(stream) T) {
	t.Helper()
	g, gp := catch(got, call)
	w, wp := catch(want, call)
	if gp != wp {
		t.Fatalf("seed %d, %s: panic %v, math/rand panic %v", seed, op, gp, wp)
	}
	if g != w {
		t.Fatalf("seed %d, %s: %v, math/rand %v", seed, op, g, w)
	}
}

// catch returns call's result, or the value it panicked with.
func catch[T comparable](r stream, call func(stream) T) (v T, panicked any) {
	defer func() { panicked = recover() }()
	return call(r), nil
}

// same fails the fuzz run when the lazy source's value differs from
// math/rand's. No method compared can return NaN.
func same[T comparable](t *testing.T, seed int64, op string, got, want T) {
	t.Helper()
	if got != want {
		t.Fatalf("seed %d, %s: %v, math/rand %v", seed, op, got, want)
	}
}

// program is the fuzz target's instruction stream.
type program []byte

func (p *program) next() byte {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return b
}

// operand reads a big-endian unsigned integer of n bytes.
func (p *program) operand(n int) uint64 {
	var v uint64
	for range n {
		v = v<<8 | uint64(p.next())
	}
	return v
}

// TestStreamFootprint pins the lazy seeding's memory win: a fresh
// per-node stream that never reaches its 274th draw must not pay for
// the 4.9 KB register math/rand's source allocates up front, and is one
// 64 B object — the source embedded in the stream, no math/rand Rand
// beside it. The runtime itself now and then allocates inside the
// measured window (the first collection starts its mark workers), so
// the gate collects first and keeps the best of three measurements.
func TestStreamFootprint(t *testing.T) {
	root := New(42)
	const streams = 2000
	var sink uint64
	objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < streams; i++ {
			r := root.SplitN("node", i)
			for k := 0; k < rngTap; k++ {
				switch k % 3 {
				case 0:
					sink += r.Uint64()
				case 1:
					sink += uint64(r.Intn(1024)) // a power of two: one draw
				default:
					sink += math.Float64bits(r.Float64())
				}
			}
		}
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d streams: %d B in %d objects", streams, bytes, objects)
	if objects > streams || bytes > 64*streams {
		t.Errorf("%d SplitN streams drawing %d values each allocate %d B in %d objects, want one object of <= 64 B per stream (sink %d)",
			streams, rngTap, bytes, objects, sink)
	}
}

var benchSink uint64

// BenchmarkWarmDraw compares a materialized lazy source against
// math/rand's in the same run: warm draws must cost no more.
func BenchmarkWarmDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source64
	}{
		{"stdlib", rand.NewSource(7).(rand.Source64)},
		{"lazy", newSource(7)},
	} {
		r := rand.New(c.src)
		for range 2 * rngLen {
			r.Uint64()
		}
		b.Run(c.name+"/Int63", func(b *testing.B) {
			for b.Loop() {
				benchSink += uint64(r.Int63())
			}
		})
		b.Run(c.name+"/Uint64", func(b *testing.B) {
			for b.Loop() {
				benchSink += r.Uint64()
			}
		})
	}
}

// BenchmarkFreshStream is the per-node pattern the engine pays at scale:
// derive a stream and draw a few values from it.
func BenchmarkFreshStream(b *testing.B) {
	root := New(42)
	for _, draws := range []int{3, rngTap + 1} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				r := root.SplitN("node", i)
				for range draws {
					benchSink += r.Uint64()
				}
				i++
			}
		})
	}
}
