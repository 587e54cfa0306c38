package graph

import (
	"math"

	"byzcount/internal/xrand"
)

// EstimateVertexExpansion returns an upper bound on h(G) obtained by BFS
// sweeps: for each of the given number of random start vertices it orders
// vertices by BFS discovery and evaluates |Out(S)|/|S| over all prefixes S
// with |S| <= n/2, keeping the minimum. BFS prefixes are exactly the ball
// family the counting algorithms reason about, so this heuristic is tight
// on the topologies in this repository (rings, dumbbells, expanders).
func (g *Graph) EstimateVertexExpansion(sweeps int, rng *xrand.Rand) float64 {
	n := g.n
	if n < 2 {
		return 0
	}
	if sweeps < 1 {
		sweeps = 1
	}
	v := g.view()
	best := math.Inf(1)
	inPrefix := make([]bool, n)
	outCount := make([]bool, n)
	var order []int
	for s := 0; s < sweeps; s++ {
		src := rng.Intn(n)
		order = g.AppendBall(order[:0], src, n) // full BFS order of src's component
		for i := range inPrefix {
			inPrefix[i] = false
			outCount[i] = false
		}
		outSize := 0
		for i, x := range order {
			inPrefix[x] = true
			if outCount[x] {
				outCount[x] = false
				outSize--
			}
			for _, w := range v.tgt[v.off[x]:v.off[x+1]] {
				if !inPrefix[w] && !outCount[w] {
					outCount[w] = true
					outSize++
				}
			}
			size := i + 1
			if size > n/2 {
				break
			}
			if ratio := float64(outSize) / float64(size); ratio < best {
				best = ratio
			}
		}
	}
	return best
}

// CheegerBoundSpectral estimates the spectral gap of the lazy random walk
// on g via power iteration and converts it to a vertex-expansion lower
// bound using the discrete Cheeger inequality h >= gap/2 (valid for
// d-regular graphs; for irregular graphs it is a heuristic). It returns 0
// for graphs where the iteration fails to separate the second eigenvalue
// (e.g. disconnected graphs).
//
// The walk matrix is W = 1/2 (I + P) with P the transition matrix; power
// iteration runs on the component orthogonal to the stationary
// distribution.
func (g *Graph) CheegerBoundSpectral(iters int, rng *xrand.Rand) float64 {
	n := g.n
	if n < 2 || !g.IsConnected() {
		return 0
	}
	if iters < 8 {
		iters = 8
	}
	cv := g.view()
	deg := make([]float64, n)
	var totalDeg float64
	for u := 0; u < n; u++ {
		deg[u] = float64(g.deg[u])
		totalDeg += deg[u]
	}
	// Stationary distribution pi(u) = deg(u)/2m.
	pi := make([]float64, n)
	for u := range pi {
		pi[u] = deg[u] / totalDeg
	}
	x := make([]float64, n)
	for u := range x {
		x[u] = rng.Float64() - 0.5
	}
	y := make([]float64, n)
	var lambda float64
	for it := 0; it < iters; it++ {
		// Project out the stationary component (in the pi inner product the
		// top eigenvector of the reversible walk is the all-ones vector).
		var dot float64
		for u := range x {
			dot += pi[u] * x[u]
		}
		for u := range x {
			x[u] -= dot
		}
		// y = W x with W = (I + P)/2, P x(u) = avg over neighbors.
		for u := range y {
			var sum float64
			for _, w := range cv.tgt[cv.off[u]:cv.off[u+1]] {
				sum += x[w]
			}
			y[u] = 0.5*x[u] + 0.5*sum/deg[u]
		}
		// Rayleigh quotient in the pi inner product.
		var num, den float64
		for u := range x {
			num += pi[u] * x[u] * y[u]
			den += pi[u] * x[u] * x[u]
		}
		if den == 0 {
			return 0
		}
		lambda = num / den
		// Normalize to avoid under/overflow.
		var norm float64
		for u := range y {
			norm += y[u] * y[u]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		for u := range y {
			x[u] = y[u] / norm
		}
	}
	gap := 1 - lambda
	if gap < 0 {
		gap = 0
	}
	return gap / 2
}
