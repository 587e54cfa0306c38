//go:build !race

package sim_test

// Warm-up allocation gate for lockstep engines. Algorithm 2 and the
// flood send at most one broadcast per round, a broadcast is one
// 24-byte AllNeighbors entry, and a lockstep engine without a hook or
// a capacity delivers by pull: a sender's output stays in its own
// outbox and each receiver builds its inbox in its worker's reused
// buffer, so there are no inbox rows and no outbox buckets to grow. What is left is one one-entry send buffer per tick
// parity, both carved from one slab. Growing buffers by doubling
// instead cost 12 heap objects per vertex over a flood's first three
// rounds, most of them garbage the collector marks at scale. The race
// detector changes allocation behavior, so this file is excluded under
// -race (same convention as topo_alloc_test.go).

import (
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/perf"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// TestLockstepWarmupAllocs pins the first Run(3) of a fresh
// 8192-vertex flood engine — the rounds in which every send buffer gets
// its first capacity — at about one object per vertex plus a constant
// number of slab chunks, and bounds the bytes at 0.5 MB: pull measures
// 0.38 MB (the send-buffer slab) on H(n,8) serially and on two workers
// (over a built CSR, see hndFloodEngine), on the C_n^4 ring lattice on
// two workers and on the 64x128 implicit torus on two workers. Push took 4.6, 11.2 and 5.3 MB on the first
// three, for degree-carved inbox rows and outbox buckets.
func TestLockstepWarmupAllocs(t *testing.T) {
	const n = 8192
	for _, tc := range []struct {
		name  string
		build func() (*sim.Engine, error)
	}{
		{"workers=1", func() (*sim.Engine, error) { return hndFloodEngine(n, 8, 1) }},
		{"workers=2", func() (*sim.Engine, error) { return hndFloodEngine(n, 8, 2) }},
		{"lattice/workers=2", func() (*sim.Engine, error) { return perf.NewLatticeFloodEngine(n, 4, 2) }},
		{"torus/workers=2", func() (*sim.Engine, error) { return torusFloodEngine(64, n/64, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			allocs, bytes := heapDuring(func() {
				if _, err := eng.Run(3); err != nil {
					t.Fatal(err)
				}
			})
			perVertex := float64(allocs) / n
			mb := float64(bytes) / (1 << 20)
			t.Logf("first Run(3): %d objects (%.2f per vertex), %.3f MB", allocs, perVertex, mb)
			if perVertex > 1.1 {
				t.Errorf("first Run(3) of a %d-vertex flood allocated %d objects (%.2f per vertex), want <= 1.1 per vertex",
					n, allocs, perVertex)
			}
			if mb > 0.5 {
				t.Errorf("first Run(3) of a %d-vertex flood allocated %.2f MB, want <= 0.5 MB", n, mb)
			}
		})
	}
}

// hndFloodEngine is perf.NewVTFloodEngine's unit-latency flood over
// H(n,d), on a graph whose CSR is built before the engine is. A vertex
// reads its row from the CSR on its first Step, and building the CSR
// is the substrate's cost, which the graph/build-* lanes and
// TestBuildAllocsConstant count, not the engine's warm-up.
func hndFloodEngine(n, d, workers int) (*sim.Engine, error) {
	g, err := graph.HND(n, d, xrand.New(4))
	if err != nil {
		return nil, err
	}
	g.Adj(0) // finalize the CSR
	return floodEngine(g, workers)
}

// torusFloodEngine is the flood on the implicit rows x cols torus, the
// substrate of the 160k-node scale cell.
func torusFloodEngine(rows, cols, workers int) (*sim.Engine, error) {
	torus, err := graph.NewTorusGrid(rows, cols)
	if err != nil {
		return nil, err
	}
	return floodEngine(torus, workers)
}

// floodEngine is the flood on topo: an engine with no between-rounds
// hook, one FloodProc per slot.
func floodEngine(topo sim.Topology, workers int) (*sim.Engine, error) {
	eng := sim.New(topo, sim.WithSeed(5))
	eng.SetParallelism(workers)
	procs := make([]sim.Proc, topo.Slots())
	for v := range procs {
		procs[v] = &perf.FloodProc{}
	}
	return eng, eng.Attach(procs)
}
