package graph

// Fixtures and reference implementations that only tests use. They live
// here, not in the package API, so that the non-test code holds only
// what the program calls.

import (
	"fmt"
	"math"
	"testing"

	"byzcount/internal/xrand"
)

// HasEdge reports whether at least one edge joins u and v.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	cv := g.view()
	// Scan the smaller list.
	a, b := int32(u), int32(v)
	if g.deg[a] > g.deg[b] {
		a, b = b, a
	}
	for _, w := range cv.tgt[cv.off[a]:cv.off[a+1]] {
		if w == b {
			return true
		}
	}
	return false
}

// IsRegular reports whether every vertex has degree d.
func (g *Graph) IsRegular(d int) bool {
	for _, dd := range g.deg {
		if int(dd) != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	c.reserved = g.reserved
	c.log = make([][]int32, len(g.log))
	for i, ch := range g.log {
		c.log[i] = append([]int32(nil), ch...)
		c.capEdges += len(ch) / 2
	}
	copy(c.deg, g.deg)
	return c
}

// Validate checks internal consistency: every endpoint of the edge log is
// in range and the degree array, which the CSR fill uses as its write
// cursors, matches the logged arcs. It returns nil for a well-formed
// graph; the chunked-log tests use it as their oracle. (Asymmetric
// adjacency needs no check: both arc directions derive from one
// edge-log entry, so they cannot disagree.)
func (g *Graph) Validate() error {
	i := 0
	for _, ch := range g.log {
		for p := 0; p < len(ch); p += 2 {
			u, w := ch[p], ch[p+1]
			if u < 0 || int(u) >= g.n {
				return fmt.Errorf("graph: edge %d has out-of-range endpoint %d", i, u)
			}
			if w < 0 || int(w) >= g.n {
				return fmt.Errorf("graph: edge %d has out-of-range endpoint %d", i, w)
			}
			i++
		}
	}
	// Recompute per-vertex degrees from the edge log and compare
	// element-wise: the CSR fill trusts deg as its write cursors, so a
	// per-vertex skew (even one that preserves the total) would corrupt
	// the view silently.
	want := make([]int32, g.n)
	for _, ch := range g.log {
		for p := 0; p < len(ch); p += 2 {
			want[ch[p]]++
			want[ch[p+1]]++
		}
	}
	for u, d := range g.deg {
		if d != want[u] {
			return fmt.Errorf("graph: vertex %d has degree %d but the edge log implies %d", u, d, want[u])
		}
	}
	return nil
}

// CompleteBinaryTree returns a complete binary tree with the given number
// of levels (level 1 = a single root).
func CompleteBinaryTree(levels int) (*Graph, error) {
	if levels < 1 || levels > 24 {
		return nil, fmt.Errorf("graph: CompleteBinaryTree levels %d outside [1,24]", levels)
	}
	n := (1 << uint(levels)) - 1
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, (v-1)/2)
	}
	return g, nil
}

// VertexExpansionExact computes the exact vertex expansion
//
//	h(G) = min over nonempty S with |S| <= n/2 of |Out(S)| / |S|
//
// by enumerating all 2^n - 2 candidate subsets (Definition 1). It is
// intended for validation on tiny graphs; it panics for n > 24.
func (g *Graph) VertexExpansionExact() float64 {
	n := g.n
	if n > 24 {
		panic("graph: VertexExpansionExact limited to n <= 24")
	}
	if n < 2 {
		return 0
	}
	best := math.Inf(1)
	for mask := 1; mask < (1<<uint(n))-1; mask++ {
		size := popcount(mask)
		if size > n/2 {
			continue
		}
		out := g.outSizeMask(mask)
		ratio := float64(out) / float64(size)
		if ratio < best {
			best = ratio
		}
	}
	return best
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// outSizeMask returns |Out(S)| for the subset encoded in mask (n <= 24).
func (g *Graph) outSizeMask(mask int) int {
	v := g.view()
	out := 0
	var outMask int
	for u := 0; u < g.n; u++ {
		if mask&(1<<uint(u)) == 0 {
			continue
		}
		for _, w := range v.tgt[v.off[u]:v.off[u+1]] {
			bit := 1 << uint(w)
			if mask&bit == 0 && outMask&bit == 0 {
				outMask |= bit
				out++
			}
		}
	}
	return out
}

// BenchmarkGraphFinalize times the two-pass CSR finalize in isolation
// (rebuilt from the edge log each iteration via Clone).
func BenchmarkGraphFinalize(b *testing.B) {
	g, err := HND(4096, 8, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		c.Adj(0)
	}
}
