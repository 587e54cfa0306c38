package stats

import (
	"math"
	"testing"

	"byzcount/internal/xrand"
)

// drawStream produces n samples from one of a few shapes, so the
// property tests cover uniform, heavy-tailed, discrete, and shifted
// distributions rather than one friendly one.
func drawStream(rng *xrand.Rand, shape string, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch shape {
		case "uniform":
			out[i] = rng.Float64()
		case "exponential":
			out[i] = rng.Exponential(0.5)
		case "discrete":
			out[i] = float64(rng.Intn(7))
		case "shifted":
			out[i] = 1e6 + rng.Float64()
		default:
			panic("unknown shape " + shape)
		}
	}
	return out
}

var streamShapes = []string{"uniform", "exponential", "discrete", "shifted"}

// TestOnlineMatchesBatch: the Online aggregate fed element by element
// must agree with the batch Mean/Variance/Min/Max over the same slice.
// SumMean is required bit-identical (it is the same left-to-right sum);
// the Welford mean and variance to 1e-9 relative error.
func TestOnlineMatchesBatch(t *testing.T) {
	rng := xrand.New(7)
	for _, shape := range streamShapes {
		for _, n := range []int{1, 2, 3, 10, 1000} {
			xs := drawStream(rng.SplitN(shape, n), shape, n)
			var o Online
			for _, x := range xs {
				o.Add(x)
			}
			if got, want := o.SumMean(), Mean(xs); got != want {
				t.Errorf("%s n=%d: SumMean=%v batch Mean=%v (must be bit-identical)", shape, n, got, want)
			}
			if got, want := o.Mean(), Mean(xs); !closeRel(got, want, 1e-9) {
				t.Errorf("%s n=%d: Welford Mean=%v batch=%v", shape, n, got, want)
			}
			if got, want := o.Variance(), Variance(xs); !closeRel(got, want, 1e-9) {
				t.Errorf("%s n=%d: Variance=%v batch=%v", shape, n, got, want)
			}
			if got, want := o.Min(), Min(xs); got != want {
				t.Errorf("%s n=%d: Min=%v batch=%v", shape, n, got, want)
			}
			if got, want := o.Max(), Max(xs); got != want {
				t.Errorf("%s n=%d: Max=%v batch=%v", shape, n, got, want)
			}
			if o.N() != int64(n) {
				t.Errorf("%s n=%d: N=%d", shape, n, o.N())
			}
		}
	}
}

// closeRel reports |a-b| <= tol * max(1, |a|, |b|).
func closeRel(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// TestOnlineEmpty pins the empty-aggregate conventions to the batch
// functions' (Mean 0, Variance 0, Min +Inf, Max -Inf).
func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.SumMean() != 0 || o.Variance() != 0 {
		t.Errorf("empty Online mean/variance not 0: %v %v %v", o.Mean(), o.SumMean(), o.Variance())
	}
	if !math.IsInf(o.Min(), 1) || !math.IsInf(o.Max(), -1) {
		t.Errorf("empty Online min/max: %v %v", o.Min(), o.Max())
	}
}

// TestOnlineDeterministicOrder: two aggregates fed the same values in
// the same order are bit-identical in every statistic — the property
// resumed sweeps rely on when replaying recorded trials.
func TestOnlineDeterministicOrder(t *testing.T) {
	xs := drawStream(xrand.New(3), "exponential", 257)
	var a, b Online
	for _, x := range xs {
		a.Add(x)
		b.Add(x)
	}
	if a != b {
		t.Errorf("identical streams produced different aggregates: %+v vs %+v", a, b)
	}
}

// TestP2ExactSmall: with five or fewer observations the P2 estimate
// must equal the batch Quantile exactly.
func TestP2ExactSmall(t *testing.T) {
	rng := xrand.New(11)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		for n := 1; n <= 5; n++ {
			xs := drawStream(rng.SplitN("s", n*10+int(q*100)), "uniform", n)
			p := NewP2(q)
			for _, x := range xs {
				p.Add(x)
			}
			if got, want := p.Quantile(), Quantile(xs, q); got != want {
				t.Errorf("q=%v n=%d: P2=%v batch=%v", q, n, got, want)
			}
		}
	}
	if !math.IsNaN(NewP2(0.5).Quantile()) {
		t.Error("empty P2 quantile not NaN")
	}
}

// TestP2TracksBatchQuantile documents the estimator's accuracy
// contract: on streams of >= 1000 iid samples the P2 estimate of the
// q-quantile lies within 5% of the observed range of the exact batch
// Quantile, for q in {0.1, 0.25, 0.5, 0.75, 0.9}. Heavily tied
// streams (the "discrete" shape: seven distinct values) get 10% —
// P-squared interpolates a continuous CDF, so on ties its markers can
// sit a sizable fraction of a quantization step from the exact order
// statistic. (The marker extremes are exact: q=0 tracks the minimum
// and q=1 the maximum by construction, checked separately.)
func TestP2TracksBatchQuantile(t *testing.T) {
	rng := xrand.New(19)
	for _, shape := range streamShapes {
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			for _, n := range []int{1000, 5000} {
				xs := drawStream(rng.SplitN(shape, n+int(q*1000)), shape, n)
				p := NewP2(q)
				var o Online
				for _, x := range xs {
					p.Add(x)
					o.Add(x)
				}
				exact := Quantile(xs, q)
				relTol := 0.05
				if shape == "discrete" {
					relTol = 0.10
				}
				tol := relTol * (o.Max() - o.Min())
				if d := math.Abs(p.Quantile() - exact); d > tol {
					t.Errorf("%s q=%v n=%d: P2=%v exact=%v (|diff|=%v > tol=%v)",
						shape, q, n, p.Quantile(), exact, d, tol)
				}
			}
		}
	}
}

// TestP2Extremes: q=0 and q=1 markers clamp to the running min/max,
// so the extreme quantiles are exact at any stream length.
func TestP2Extremes(t *testing.T) {
	xs := drawStream(xrand.New(23), "exponential", 2000)
	lo, hi := NewP2(0), NewP2(1)
	var o Online
	for _, x := range xs {
		lo.Add(x)
		hi.Add(x)
		o.Add(x)
	}
	if lo.Quantile() != o.Min() {
		t.Errorf("P2(0)=%v min=%v", lo.Quantile(), o.Min())
	}
	if hi.Quantile() != o.Max() {
		t.Errorf("P2(1)=%v max=%v", hi.Quantile(), o.Max())
	}
}

// Batch references for the Online aggregate: the textbook two-pass
// sample variance and the plain minimum and maximum of a slice.

// Variance returns the unbiased sample variance of xs, or 0 when fewer than
// two samples are present.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
