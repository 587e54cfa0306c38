package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestVariance(t *testing.T) {
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %g", got)
	}
	if got := Variance([]float64{7}); got != 0 {
		t.Errorf("Variance(single) = %g", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic data set is 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-9) {
		t.Errorf("Variance = %g, want %g", got, want)
	}
}

func TestMinMax(t *testing.T) {
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
	xs := []float64{3, -2, 8, 0}
	if Min(xs) != -2 || Max(xs) != 8 {
		t.Errorf("Min/Max(%v) = %g/%g", xs, Min(xs), Max(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 4 || xs[3] != 2 {
		t.Error("Quantile mutated its input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) should be NaN")
	}
	if got := Quantile([]float64{9}, 0.3); got != 9 {
		t.Errorf("Quantile(single, 0.3) = %g", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile with q>1 did not panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestInts(t *testing.T) {
	got := Ints([]int{1, -2, 3})
	want := []float64{1, -2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ints = %v, want %v", got, want)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.total != 0 {
		t.Fatal("fresh histogram not empty")
	}
	h.Add(3)
	h.Add(3)
	h.Add(5)
	addN(h, 1, 4)
	if h.total != 7 {
		t.Errorf("total = %d, want 7", h.total)
	}
	if h.counts[3] != 2 || h.counts[1] != 4 || h.counts[42] != 0 {
		t.Errorf("counts wrong: %s", h)
	}
	want := []int{1, 3, 5}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("Buckets = %v", got)
	}
	if !sort.IntsAreSorted(got) {
		t.Errorf("Buckets not sorted: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Buckets = %v, want %v", got, want)
		}
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram()
	v, c := h.Mode()
	if v != 0 || c != 0 {
		t.Errorf("empty Mode = %d,%d", v, c)
	}
	addN(h, 4, 3)
	addN(h, 2, 3) // tie; smaller value wins
	h.Add(7)
	v, c = h.Mode()
	if v != 2 || c != 3 {
		t.Errorf("Mode = %d,%d; want 2,3", v, c)
	}
}

func TestHistogramFraction(t *testing.T) {
	h := NewHistogram()
	if h.Fraction(0, 10) != 0 {
		t.Error("empty Fraction != 0")
	}
	addN(h, 1, 2)
	addN(h, 5, 2)
	addN(h, 10, 4)
	if got := h.Fraction(1, 5); got != 0.5 {
		t.Errorf("Fraction(1,5) = %g", got)
	}
	if got := h.Fraction(10, 10); got != 0.5 {
		t.Errorf("Fraction(10,10) = %g", got)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Add(2)
	addN(h, 1, 3)
	if got, want := h.String(), "1:3 2:1"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestMeanQuantileConsistency(t *testing.T) {
	// Property: min <= p25 <= median <= p75 <= max and min <= mean <= max.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, p25, med, p75, hi := Min(xs), Quantile(xs, 0.25), Median(xs), Quantile(xs, 0.75), Max(xs)
		mean := Mean(xs)
		return lo <= p25+1e-9 && p25 <= med+1e-9 && med <= p75+1e-9 && p75 <= hi+1e-9 &&
			lo <= mean+1e-9 && mean <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// addN records n observations of value v.
func addN(h *Histogram, v, n int) {
	for i := 0; i < n; i++ {
		h.Add(v)
	}
}
