//go:build !race

package sim_test

// Slab-budget guard for engine construction: New carves every slot's
// buffers at its Topology.Degree, so the first round's lazy
// neighborhood resolution appends into pre-carved slab chunks instead
// of growing nil slices. Without the pre-carve, resolving n vertices
// costs ~2n allocations (Neighbors and sortedAdj each); with it,
// O(arcs/chunk).
// The race detector changes allocation behavior, so this file is
// excluded under -race (same convention as graph/alloc_test.go).

import (
	"runtime"
	"testing"
	"unsafe"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
)

// silentProc never sends and never halts — it isolates the engine's own
// resolution cost from inbox-slab growth.
type silentProc struct{}

func (silentProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing { return nil }
func (silentProc) Halted() bool                                                   { return false }

// mallocsDuring counts heap allocations across f on a quiesced heap.
func mallocsDuring(f func()) uint64 {
	mallocs, _ := heapDuring(f)
	return mallocs
}

// heapDuring counts heap allocations and bytes across f on a quiesced
// heap.
func heapDuring(f func()) (mallocs, bytes uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestEngineConstructionBudget pins construction cost over an implicit
// topology and its materialized graph: O(1) allocations (slot arrays +
// slab chunks, never per-vertex allocs) and a few hundred bytes per
// slot. Two regressions this
// catches, both of which shipped briefly during development: a slab
// carve that burned a fresh chunk per vertex (~O(arcs^2) bytes), and
// eager per-slot random streams (~10KiB per slot — the stdlib source is
// 607 words, and SplitN used to materialize two of them).
func TestEngineConstructionBudget(t *testing.T) {
	const n, k = 8192, 4
	lat, err := graph.NewRingLattice(n, k)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lat.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	g.Adj(0) // finalize outside the measured region
	for _, tc := range []struct {
		name  string
		build func() *sim.Engine
	}{
		{"topology", func() *sim.Engine { return sim.New(lat, sim.WithSeed(7)) }},
		{"static", func() *sim.Engine { return sim.New(g, sim.WithSeed(7)) }},
	} {
		var eng *sim.Engine
		allocs, bytes := heapDuring(func() { eng = tc.build() })
		_ = eng
		if allocs >= 512 {
			t.Errorf("%s construction allocated %d objects (n=%d); want O(1), not per-vertex", tc.name, allocs, n)
		}
		if bytes >= 8<<20 {
			t.Errorf("%s construction allocated %d bytes (n=%d); slab or stream budget regressed", tc.name, bytes, n)
		}
	}
}

// TestEngineNewTorusFootprint pins sim.New on the 400x400 implicit
// torus, the substrate of the 160k-node scale cell: the duplicate-ID
// check sorts a copy of the draws, and the ID index is built only by
// Detach or AttachAt, so construction holds no per-slot map; neighbor
// IDs are read from the engine's ID table, so there is no per-arc ID
// slab either. It measures 46.45 MB in 21-27 allocations on amd64
// (go1.24); the bound leaves 0.95 MB (2%) of slack. A map of the
// 160,000 IDs adds 4.7 MB, and a per-arc copy of the neighbor IDs
// 5.1 MB.
func TestEngineNewTorusFootprint(t *testing.T) {
	torus, err := graph.NewTorusGrid(400, 400)
	if err != nil {
		t.Fatal(err)
	}
	var eng *sim.Engine
	allocs, bytes := heapDuring(func() { eng = sim.New(torus, sim.WithSeed(42)) })
	t.Logf("sim.New on the 400x400 torus: %d allocations, %d bytes", allocs, bytes)
	if eng.ID(0) == eng.ID(1) {
		t.Fatal("degenerate IDs")
	}
	if bytes > 47_400_000 {
		t.Errorf("sim.New on the 400x400 torus allocated %d bytes, want <= 47,400,000 (no per-slot map or ID copy)", bytes)
	}
}

// TestEnvFootprint pins the per-slot Env: neighbor IDs are read from
// the engine's ID table through the pointer that also derives the
// slot's stream, so a slot holds no copy of them.
func TestEnvFootprint(t *testing.T) {
	if size := unsafe.Sizeof(sim.Env{}); size > 120 {
		t.Errorf("sim.Env is %d bytes, want <= 120", size)
	}
}

// TestTopologyEnginePrecarvedFirstRound pins the slab budget: the first
// round over a degree-hinted implicit lattice — the round that resolves
// every neighborhood — must allocate far fewer than one object per
// vertex. A regression to per-vertex buffer growth (~3n allocations)
// fails this by an order of magnitude.
func TestTopologyEnginePrecarvedFirstRound(t *testing.T) {
	const n, k = 8192, 4
	lat, err := graph.NewRingLattice(n, k)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(lat, sim.WithSeed(7))
	procs := make([]sim.Proc, n)
	for v := range procs {
		procs[v] = silentProc{}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	allocs := mallocsDuring(func() {
		if _, err := eng.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= n/4 {
		t.Errorf("first round over a degree-hinted lattice allocated %d objects (n=%d); pre-carve regressed", allocs, n)
	}
}
