// Package counting implements the paper's two Byzantine counting
// algorithms and the baseline protocols they are motivated against:
//
//   - Local: the deterministic LOCAL-model algorithm of Section 4
//     (Algorithm 1) — expansion-checked neighborhood growth, O(log n)
//     rounds, tolerates n^(1-γ) Byzantine nodes on any bounded-degree
//     expander.
//   - Congest: the randomized small-message algorithm of Section 5
//     (Algorithm 2) — beacon generation, path fields, per-phase
//     blacklists, and continue messages on H(n,d) random regular graphs,
//     tolerating n^(1/2-ξ) Byzantine nodes in O(B(n)·log² n) rounds.
//   - Geometric / Support: the folklore size-estimation protocols of
//     Section 1.2 that collapse under a single Byzantine node.
//   - SpanningTree: exact counting by convergecast, the non-Byzantine
//     ground truth.
//
// All protocols are sim.Proc implementations; the expt package wires them
// together with adversaries from the byzantine package.
package counting

import (
	"math"

	"byzcount/internal/sim"
)

// Outcome records one node's final state after a run. The ints come
// first, so the two flags share one word: 24 bytes.
type Outcome struct {
	Estimate int // the decided estimate L_u (scale depends on the protocol)
	Round    int // round at which the decision was made
	Decided  bool
	Exited   bool
}

// Estimator is implemented by every honest counting process so the
// harness can read results uniformly.
type Estimator interface {
	sim.Proc
	Outcome() Outcome
}

// Outcomes collects the outcome of every vertex whose process implements
// Estimator; other vertices (e.g. Byzantine ones) yield a zero Outcome
// with Decided=false.
func Outcomes(procs []sim.Proc) []Outcome {
	out := make([]Outcome, len(procs))
	for v, p := range procs {
		if e, ok := p.(Estimator); ok {
			out[v] = e.Outcome()
		}
	}
	return out
}

// DecidedEstimates returns the estimates of decided honest vertices, or
// nil when none decided. honest[v] must be true for vertices controlled
// by the protocol. The slice is allocated once, at its final length.
func DecidedEstimates(outcomes []Outcome, honest []bool) []int {
	n := 0
	for v, o := range outcomes {
		if honest[v] && o.Decided {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	vals := make([]int, 0, n)
	for v, o := range outcomes {
		if honest[v] && o.Decided {
			vals = append(vals, o.Estimate)
		}
	}
	return vals
}

// DecidedFraction returns the fraction of honest vertices that decided.
func DecidedFraction(outcomes []Outcome, honest []bool) float64 {
	total, decided := 0, 0
	for v, o := range outcomes {
		if !honest[v] {
			continue
		}
		total++
		if o.Decided {
			decided++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(decided) / float64(total)
}

// FractionWithinFactor returns the fraction of honest decided estimates L
// with lo <= L <= hi, the "constant factor estimate" success criterion of
// Definition 2 instantiated with concrete bounds.
func FractionWithinFactor(outcomes []Outcome, honest []bool, lo, hi float64) float64 {
	total, ok := 0, 0
	for v, o := range outcomes {
		if !honest[v] {
			continue
		}
		total++
		if o.Decided && float64(o.Estimate) >= lo && float64(o.Estimate) <= hi {
			ok++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}

// Log2 returns log base 2 of n as a float (0 for n < 1).
func Log2(n int) float64 {
	if n < 1 {
		return 0
	}
	return math.Log2(float64(n))
}

// LogD returns log base d of n (0 for degenerate inputs). Algorithm 2's
// phase counter converges around log_d n because the ball of radius i in
// an H(n,d) graph holds Θ(d^i) nodes.
func LogD(n, d int) float64 {
	if n < 1 || d < 2 {
		return 0
	}
	return math.Log(float64(n)) / math.Log(float64(d))
}
