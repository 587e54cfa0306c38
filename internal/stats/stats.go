// Package stats provides the small set of descriptive statistics used by
// the experiment harness: means, quantiles, histograms, and constant-memory
// aggregates of repeated trials.
//
// All functions treat their input as immutable: slices passed in are never
// reordered in place (quantile computations copy first).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile of xs (0 <= q <= 1) using linear
// interpolation between order statistics. It returns NaN for an empty
// slice and panics if q is outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the median of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Ints converts an int slice to float64 for use with the functions above.
func Ints(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Histogram counts values into integer-valued buckets; it is used to show
// the distribution of decided estimates across nodes.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.total++
}

// Buckets returns the observed values in ascending order.
func (h *Histogram) Buckets() []int {
	out := make([]int, 0, len(h.counts))
	for v := range h.counts {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Mode returns the most frequent value and its count. Ties break toward the
// smaller value. An empty histogram returns (0, 0).
func (h *Histogram) Mode() (value, count int) {
	best, bestCount := 0, 0
	for _, v := range h.Buckets() {
		if c := h.counts[v]; c > bestCount {
			best, bestCount = v, c
		}
	}
	return best, bestCount
}

// Fraction returns the fraction of observations with value in [lo, hi].
func (h *Histogram) Fraction(lo, hi int) float64 {
	if h.total == 0 {
		return 0
	}
	in := 0
	for v, c := range h.counts {
		if v >= lo && v <= hi {
			in += c
		}
	}
	return float64(in) / float64(h.total)
}

// String renders the histogram as "v:count" pairs in ascending value order.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, v := range h.Buckets() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", v, h.counts[v])
	}
	return b.String()
}
