//go:build !race

package sim_test

// Warm-up allocation gate for lockstep engines. Algorithm 2 and the
// flood send at most one message per edge per round, so an inbox row
// carved at its destination's degree on first delivery never regrows,
// and a broadcast is one 24-byte AllNeighbors entry, so a flood's send
// buffer is one entry whatever the degree. Growing rows and buffers by
// doubling instead cost 12 heap objects per vertex over a flood's first
// three rounds, most of them garbage the collector marks at scale, and
// a degree-sized send buffer per vertex cost 1.3 MB more than one entry
// at n=8192, d=8. On a parallel engine a lockstep broadcast from a
// sender whose neighbors all lie in one shard also stays one outbox
// bucket entry, so on a local substrate such as the ring lattice, where
// almost every sender is such a sender, the buckets no longer grow to a
// round's copies. The race detector changes allocation behavior, so
// this file is excluded under -race (same convention as
// topo_alloc_test.go).

import (
	"testing"

	"byzcount/internal/perf"
	"byzcount/internal/sim"
)

// TestLockstepWarmupAllocs pins the first Run(3) of a fresh flood
// engine — the rounds in which every ring row, send buffer and outbox
// bucket gets its first capacity — at about one object per vertex (the
// one-entry send buffer) plus a constant number of slab chunks, and
// bounds the bytes: on H(8192,8), 4.6 MB serially and 11.2 MB on two
// workers (senders there span shards, so the buckets hold a round's
// copies), where degree-sized send buffers took 5.9 and 12.7 MB; on the
// C_8192^4 ring lattice on two workers, 5.3 MB, where one bucket entry
// per copy took 11.9 MB.
func TestLockstepWarmupAllocs(t *testing.T) {
	const n = 8192
	for _, tc := range []struct {
		name  string
		build func() (*sim.Engine, error)
		maxMB float64
	}{
		{"workers=1", func() (*sim.Engine, error) { return perf.NewVTFloodEngine(n, 8, 1, "") }, 4.8},
		{"workers=2", func() (*sim.Engine, error) { return perf.NewVTFloodEngine(n, 8, 2, "") }, 11.8},
		{"lattice/workers=2", func() (*sim.Engine, error) { return perf.NewLatticeFloodEngine(n, 4, 2) }, 6.0},
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
			t.Logf("first Run(3): %d objects (%.2f per vertex), %.1f MB", allocs, perVertex, mb)
			if perVertex > 1.1 {
				t.Errorf("first Run(3) of a %d-vertex flood allocated %d objects (%.2f per vertex), want <= 1.1 per vertex",
					n, allocs, perVertex)
			}
			if mb > tc.maxMB {
				t.Errorf("first Run(3) of a %d-vertex flood allocated %.2f MB, want <= %.1f MB", n, mb, tc.maxMB)
			}
		})
	}
}
