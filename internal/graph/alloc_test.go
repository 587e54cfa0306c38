//go:build !race

// AllocsPerRun counting is meaningless under the race detector: -race
// instruments allocations and sync.Pool deliberately drops items, so
// the pooled scratch reallocates per call. CI's bench-smoke job runs
// this file without -race; the race job covers the determinism suites.

package graph

import (
	"testing"

	"byzcount/internal/xrand"
)

// TestBuildAllocsConstant gates the O(1)-allocations build contract of
// the CSR core: a complete H(n,d) build — generator draws and CSR
// finalize — performs a constant number of allocations independent of
// n (the seed append-built representation allocated ~3n). The budget
// covers the graph struct, the edge log, the degree array, the CSR
// view, and the d/2 permutation draws.
func TestBuildAllocsConstant(t *testing.T) {
	const budget = 24
	for _, n := range []int{256, 1024, 4096} {
		rng := xrand.New(4)
		allocs := testing.AllocsPerRun(8, func() {
			rng.Reseed(4)
			g, err := HND(n, 8, rng)
			if err != nil {
				t.Fatal(err)
			}
			g.Adj(0)
		})
		if allocs > budget {
			t.Errorf("HND(%d,8) build: %.0f allocs, budget %d (must not scale with n)", n, allocs, budget)
		}
	}
}

// TestStructuralToolAllocs gates the zero-steady-state-allocation
// contract of the map-free structural tools: with warm reusable buffers,
// BFS, balls, the all-pairs eccentricity sweep, the tree-like test, and
// the simplicity check allocate nothing (the seed code allocated maps
// per call — bfs.go's per-ball map was the placement machinery's
// dominant setup cost). The sweep is timed through diameter, the
// unmemoized body of Diameter, so every run repeats eccInto's BFS from
// each vertex.
func TestStructuralToolAllocs(t *testing.T) {
	g, err := HND(1024, 8, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g.Adj(0) // finalize outside the measured region
	dist := make([]int, g.N())
	ballBuf := make([]int, 0, g.N())
	src := 0

	cases := []struct {
		name string
		fn   func()
	}{
		{"BFSInto", func() { g.BFSInto(dist, src, g.N()) }},
		{"AppendBall", func() { ballBuf = g.AppendBall(ballBuf[:0], src, 3) }},
		{"IsLocallyTreeLike", func() { g.IsLocallyTreeLike(src, 2, 8) }},
		{"IsSimple", func() { g.IsSimple() }},
		{"diameter", func() { g.diameter() }},
	}
	for _, tc := range cases {
		tc.fn() // warm the scratch pool and buffers
		if allocs := testing.AllocsPerRun(16, tc.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op in steady state, want 0", tc.name, allocs)
		}
	}
}
