package graph

import (
	"fmt"

	"byzcount/internal/xrand"
)

// HND generates an H(n,d) random regular multigraph: the union of d/2
// independent uniform Hamiltonian cycles on n vertices (the permutation
// model of Section 2 of the paper). d must be even and >= 2, and n >= 3.
// The result is d-regular; parallel edges are possible (and expected in
// constant number), matching the model the paper analyzes.
func HND(n, d int, rng *xrand.Rand) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: HND requires n >= 3, got %d", n)
	}
	if d < 2 || d%2 != 0 {
		return nil, fmt.Errorf("graph: HND requires even d >= 2, got %d", d)
	}
	if err := CheckEdgeBudget(n * d / 2); err != nil {
		return nil, err
	}
	g := New(n)
	g.Reserve(n * d / 2)
	for c := 0; c < d/2; c++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			g.AddEdge(perm[i], perm[(i+1)%n])
		}
	}
	return g, nil
}

// WattsStrogatz generates a small-world network: a ring lattice where each
// vertex connects to its k nearest neighbors on each side (2k per vertex),
// with each lattice edge rewired to a uniform random endpoint with
// probability beta. This is the topology assumed by the prior work of
// Chatterjee et al. [14] that this paper removes; it appears here as a
// comparison substrate. Self-loops and duplicate edges are avoided during
// rewiring.
func WattsStrogatz(n, k int, beta float64, rng *xrand.Rand) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: WattsStrogatz requires n >= 3, got %d", n)
	}
	if k < 1 || 2*k >= n {
		return nil, fmt.Errorf("graph: WattsStrogatz requires 1 <= k and 2k < n (k=%d, n=%d)", k, n)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("graph: WattsStrogatz beta %v outside [0,1]", beta)
	}
	if err := CheckEdgeBudget(n * k); err != nil {
		return nil, err
	}
	// Track existing edges to keep the graph simple under rewiring:
	// per-vertex sorted adjacency with binary-search membership and
	// sorted insert/remove. Degrees are ~2k, so the searches are a few
	// compares on a contiguous row — the map this replaces hashed every
	// candidate edge of the rewiring loop. Membership answers (and hence
	// every rng draw) are identical to the map-based seed code.
	type edge struct{ u, v int }
	norm := func(u, v int) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	adj := make([][]int32, n)
	for u := range adj {
		adj[u] = make([]int32, 0, 2*k+2)
	}
	has := func(e edge) bool {
		row := adj[e.u]
		i := searchInt32(row, int32(e.v))
		return i < len(row) && row[i] == int32(e.v)
	}
	insertHalf := func(u, v int) {
		row := adj[u]
		i := searchInt32(row, int32(v))
		row = append(row, 0)
		copy(row[i+1:], row[i:])
		row[i] = int32(v)
		adj[u] = row
	}
	removeHalf := func(u, v int) {
		row := adj[u]
		i := searchInt32(row, int32(v))
		copy(row[i:], row[i+1:])
		adj[u] = row[:len(row)-1]
	}
	add := func(e edge) { insertHalf(e.u, e.v); insertHalf(e.v, e.u) }
	del := func(e edge) { removeHalf(e.u, e.v); removeHalf(e.v, e.u) }
	edges := make([]edge, 0, n*k)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			e := norm(u, (u+j)%n)
			if !has(e) {
				add(e)
				edges = append(edges, e)
			}
		}
	}
	for i, e := range edges {
		if !rng.Bernoulli(beta) {
			continue
		}
		// Rewire the far endpoint to a uniform random vertex, avoiding
		// loops and duplicates; keep the original edge if no candidate is
		// found quickly (degenerate only for very dense graphs).
		for attempt := 0; attempt < 32; attempt++ {
			w := rng.Intn(n)
			ne := norm(e.u, w)
			if w == e.u || has(ne) {
				continue
			}
			del(e)
			add(ne)
			edges[i] = ne
			break
		}
	}
	g := New(n)
	g.Reserve(len(edges))
	for _, e := range edges {
		g.AddEdge(e.u, e.v)
	}
	return g, nil
}

// searchInt32 returns the insertion index of x in the ascending row
// (binary search).
func searchInt32(row []int32, x int32) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Ring returns the n-cycle C_n (n >= 3): connected, 2-regular, and with
// vanishing expansion — a natural non-expander control.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: Ring requires n >= 3, got %d", n)
	}
	if err := CheckEdgeBudget(n); err != nil {
		return nil, err
	}
	g := New(n)
	g.Reserve(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g, nil
}

// Path returns the n-vertex path graph.
func Path(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: Path requires n >= 1, got %d", n)
	}
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g, nil
}

// Torus returns the rows x cols wraparound grid (4-regular when both
// dimensions are >= 3).
func Torus(rows, cols int) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graph: Torus requires rows, cols >= 3 (got %dx%d)", rows, cols)
	}
	if err := CheckEdgeBudget(2 * rows * cols); err != nil {
		return nil, err
	}
	g := New(rows * cols)
	g.Reserve(2 * rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(id(r, c), id((r+1)%rows, c))
			g.AddEdge(id(r, c), id(r, (c+1)%cols))
		}
	}
	return g, nil
}

// Dumbbell builds the Theorem 3 topology: two H(n,d) expander "bells" of
// sizes n1 and n2 joined only through a single bridge vertex. The bridge
// (returned as bridge) is the natural location for a Byzantine node: it is
// a cut vertex, so the graph has no vertex expansion to speak of, and the
// two sides cannot verify each other's existence except through it.
func Dumbbell(n1, n2, d int, rng *xrand.Rand) (g *Graph, bridge int, err error) {
	if n1 < 3 || n2 < 3 {
		return nil, 0, fmt.Errorf("graph: Dumbbell requires both sides >= 3 (got %d, %d)", n1, n2)
	}
	left, err := HND(n1, d, rng.Split("left"))
	if err != nil {
		return nil, 0, err
	}
	right, err := HND(n2, d, rng.Split("right"))
	if err != nil {
		return nil, 0, err
	}
	// Layout: [0,n1) left, [n1, n1+n2) right, bridge = n1+n2.
	g = New(n1 + n2 + 1)
	for _, e := range left.EdgeList() {
		g.AddEdge(e[0], e[1])
	}
	for _, e := range right.EdgeList() {
		g.AddEdge(e[0]+n1, e[1]+n1)
	}
	bridge = n1 + n2
	g.AddEdge(bridge, rng.Intn(n1))
	g.AddEdge(bridge, n1+rng.Intn(n2))
	return g, bridge, nil
}
