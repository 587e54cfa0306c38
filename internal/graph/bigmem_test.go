//go:build bigmem && !race

package graph

// Million-vertex build tests, opt-in via -tags=bigmem (several hundred
// MB of live heap; excluded from the default and -race suites):
//
//	go test -tags=bigmem -run TestBig ./internal/graph/
//
// These pin the streamed CSR finalize at the scale the chunked edge log
// exists for: the build must stay O(m) bytes with an O(1)-per-chunk
// allocation count — no doubling spikes, no per-edge allocations.

import (
	"runtime"
	"testing"

	"byzcount/internal/xrand"
)

// heapDelta runs f on a quiesced heap and reports (mallocs, bytes).
func heapDelta(f func()) (uint64, uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestBigHNDBuild builds H(10^6, 8) through finalize and bounds the
// build's allocation behavior. The budget arithmetic: m = 4M edges,
// so the edge log is 2m int32 = 32MB, the CSR view another 2m int32
// plus n+1 offsets = 36MB, and the generator's cycle/matching
// permutations are a few n-int slices.
// 400MB of transient total and a few thousand allocations (62 reserved
// log chunks, a handful of views and perms) hold that with 2x headroom;
// a regression to per-edge allocation or append-doubling blows either
// bound by orders of magnitude.
func TestBigHNDBuild(t *testing.T) {
	const n, d = 1_000_000, 8
	if err := CheckEdgeBudget(n * d / 2); err != nil {
		t.Fatalf("edge budget: %v", err)
	}
	var g *Graph
	var err error
	mallocs, bytes := heapDelta(func() {
		g, err = HND(n, d, xrand.New(9))
		if err != nil {
			return
		}
		g.Adj(0) // streamed two-pass finalize
	})
	if err != nil {
		t.Fatalf("HND(%d, %d): %v", n, d, err)
	}
	if g.N() != n || g.M() != n*d/2 {
		t.Fatalf("built n=%d m=%d, want n=%d m=%d", g.N(), g.M(), n, n*d/2)
	}
	t.Logf("H(%d,%d) build+finalize: %d allocs, %d MB", n, d, mallocs, bytes>>20)
	if mallocs >= 20_000 {
		t.Errorf("build allocated %d objects; want O(chunks), not O(m)", mallocs)
	}
	if bytes >= 400<<20 {
		t.Errorf("build allocated %d MB; streamed finalize budget regressed", bytes>>20)
	}
	deg := 0
	for v := 0; v < n; v++ {
		deg += g.Degree(v)
	}
	if deg != 2*g.M() {
		t.Fatalf("degree sum %d != 2m %d", deg, 2*g.M())
	}
}

// TestBigImplicitRows spot-checks implicit row reconstruction at 10^6
// slots without materializing: row identity against the closed-form
// neighbor sets, at the wrap boundaries and interior.
func TestBigImplicitRows(t *testing.T) {
	const n, k = 1_000_000, 4
	lat, err := NewRingLattice(n, k)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int
	for _, v := range []int{0, 1, k, n / 2, n - k, n - 1} {
		buf = lat.AppendNeighbors(v, buf[:0])
		if len(buf) != 2*k {
			t.Fatalf("slot %d: %d neighbors, want %d", v, len(buf), 2*k)
		}
		for _, w := range buf {
			diff := (w - v + n) % n
			if diff > k && diff < n-k {
				t.Fatalf("slot %d: neighbor %d outside the lattice window", v, w)
			}
		}
	}
	side := 1000
	tor, err := NewTorusGrid(side, side)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, side - 1, side * side / 2, side*side - 1} {
		buf = tor.AppendNeighbors(v, buf[:0])
		if len(buf) != 4 {
			t.Fatalf("torus slot %d: %d neighbors, want 4", v, len(buf))
		}
	}
}
