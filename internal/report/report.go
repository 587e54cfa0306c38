// Package report renders experiment output in figure-like forms: CSV for
// external tooling and sparklines for per-round time series (e.g. the
// phase structure of Algorithm 2's message traffic). The paper has no
// numbered figures, so these are the "figures" of the reproduction.
package report

import (
	"math"
	"strings"
)

// CSV renders a header and rows as RFC-4180-ish CSV (quoting cells that
// contain commas, quotes, or newlines).
func CSV(header []string, rows [][]string) string {
	var b strings.Builder
	writeRecord(&b, header)
	for _, row := range rows {
		writeRecord(&b, row)
	}
	return b.String()
}

func writeRecord(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(escapeCSV(c))
	}
	b.WriteByte('\n')
}

func escapeCSV(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// sparkLevels are the eight block characters used by Sparkline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a single line of block characters scaled
// to the series maximum. Empty input yields an empty string.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	maxVal := 0.0
	for _, v := range values {
		if !math.IsNaN(v) && v > maxVal {
			maxVal = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		if math.IsNaN(v) || v <= 0 || maxVal == 0 {
			b.WriteRune(sparkLevels[0])
			continue
		}
		idx := int(v / maxVal * float64(len(sparkLevels)-1))
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// Downsample reduces a series to at most buckets points by averaging
// consecutive windows; used to fit long round series into one terminal
// line.
func Downsample(values []float64, buckets int) []float64 {
	if buckets < 1 || len(values) <= buckets {
		return append([]float64(nil), values...)
	}
	out := make([]float64, buckets)
	window := float64(len(values)) / float64(buckets)
	for i := 0; i < buckets; i++ {
		lo := int(float64(i) * window)
		hi := int(float64(i+1) * window)
		if hi > len(values) {
			hi = len(values)
		}
		if lo >= hi {
			lo = hi - 1
		}
		sum := 0.0
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// Ints converts an int64 series for charting.
func Ints(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
