package stats

// Online aggregates: constant-memory counterparts of the batch
// Mean and Quantile functions, for sweeps too large to retain
// per-trial rows. A million-cell matrix run streams every completed
// trial through one Online (and optionally one P2 per tracked
// quantile) per row, so steady-state sweep memory is O(rows), not
// O(rows x trials).
//
// Accumulation order matters in floating point: feeding the same
// values in the same order always produces bit-identical aggregates,
// which is what lets a resumed sweep (recorded results replayed in
// trial order) emit tables byte-identical to an uninterrupted run.

import (
	"math"
	"sort"
)

// Online accumulates count, mean, variance (Welford's algorithm), an
// order-stable plain sum, and min/max of a stream of observations in
// O(1) memory. The zero value is ready to use.
type Online struct {
	n    int64
	mean float64 // Welford running mean
	m2   float64 // sum of squared deviations from the running mean
	sum  float64 // plain left-to-right sum (bit-identical to batch Mean)
	min  float64
	max  float64
}

// Add records one observation.
func (o *Online) Add(x float64) {
	o.n++
	o.sum += x
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
	if o.n == 1 {
		o.min, o.max = math.Inf(1), math.Inf(-1)
	}
	// NaN comparisons are false, so NaNs never displace min/max.
	if x < o.min {
		o.min = x
	}
	if x > o.max {
		o.max = x
	}
}

// N returns the number of observations.
func (o *Online) N() int64 { return o.n }

// Mean returns the Welford running mean, or 0 when empty (matching
// the batch Mean). It is numerically stabler than SumMean but not
// bit-identical to it.
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return 0
	}
	return o.mean
}

// SumMean returns sum/n accumulated in arrival order — bit-identical
// to the batch Mean over the same values in the same order, which is
// what table columns use so streamed tables match batch-computed ones
// byte for byte. 0 when empty.
func (o *Online) SumMean() float64 {
	if o.n == 0 {
		return 0
	}
	return o.sum / float64(o.n)
}

// Variance returns the unbiased sample variance, or 0 when fewer than
// two observations are present.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Min returns the minimum observation, or +Inf when empty.
func (o *Online) Min() float64 {
	if o.n == 0 {
		return math.Inf(1)
	}
	return o.min
}

// Max returns the maximum observation, or -Inf when empty.
func (o *Online) Max() float64 {
	if o.n == 0 {
		return math.Inf(-1)
	}
	return o.max
}

// P2 estimates a single quantile of a stream in O(1) memory using the
// P-squared algorithm (Jain & Chlamtac, CACM 1985): five markers whose
// heights track the quantile and whose positions are nudged toward
// their ideal spots with piecewise-parabolic interpolation. For five
// or fewer observations the estimate is exact (the observations are
// retained and the batch Quantile applied); beyond that it is an
// approximation whose error shrinks as the stream grows — see
// TestP2TracksBatchQuantile for the documented tolerance.
type P2 struct {
	q    float64
	n    int64
	h    [5]float64 // marker heights
	pos  [5]float64 // actual marker positions (1-based)
	want [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increment per observation
	init []float64  // first five observations, sorted on the fifth
}

// NewP2 returns an estimator for the q-quantile, q in [0, 1].
func NewP2(q float64) *P2 {
	if q < 0 || q > 1 {
		panic("stats: P2 quantile outside [0,1]")
	}
	return &P2{
		q:    q,
		want: [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5},
		inc:  [5]float64{0, q / 2, q, (1 + q) / 2, 1},
		init: make([]float64, 0, 5),
	}
}

// Add records one observation.
func (p *P2) Add(x float64) {
	p.n++
	if p.n <= 5 {
		p.init = append(p.init, x)
		if p.n == 5 {
			sorted := append([]float64(nil), p.init...)
			sort.Float64s(sorted)
			copy(p.h[:], sorted)
			p.pos = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}
	// Locate the cell containing x and clamp the extreme markers.
	var k int
	switch {
	case x < p.h[0]:
		p.h[0] = x
		k = 0
	case x >= p.h[4]:
		p.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.want {
		p.want[i] += p.inc[i]
	}
	// Nudge the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			hp := p.parabolic(i, s)
			if p.h[i-1] < hp && hp < p.h[i+1] {
				p.h[i] = hp
			} else {
				p.h[i] = p.linear(i, s)
			}
			p.pos[i] += s
		}
	}
}

// parabolic is the P-squared piecewise-parabolic height prediction for
// moving marker i by s (+1 or -1).
func (p *P2) parabolic(i int, s float64) float64 {
	return p.h[i] + s/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+s)*(p.h[i+1]-p.h[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-s)*(p.h[i]-p.h[i-1])/(p.pos[i]-p.pos[i-1]))
}

// linear is the fallback height prediction when the parabola would
// violate marker monotonicity.
func (p *P2) linear(i int, s float64) float64 {
	j := i + int(s)
	return p.h[i] + s*(p.h[j]-p.h[i])/(p.pos[j]-p.pos[i])
}

// Quantile returns the current estimate: NaN when empty, exact for up
// to five observations, the P-squared estimate beyond.
func (p *P2) Quantile() float64 {
	if p.n == 0 {
		return math.NaN()
	}
	if p.n <= 5 {
		return Quantile(p.init, p.q)
	}
	switch p.q {
	case 0:
		return p.h[0]
	case 1:
		return p.h[4]
	}
	return p.h[2]
}
