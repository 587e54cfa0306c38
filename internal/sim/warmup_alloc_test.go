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
// at n=8192, d=8. The race detector changes allocation behavior, so
// this file is excluded under -race (same convention as
// topo_alloc_test.go).

import (
	"fmt"
	"testing"

	"byzcount/internal/perf"
)

// TestLockstepWarmupAllocs pins the first Run(3) of a fresh flood
// engine — the rounds in which every ring row and send buffer gets its
// first capacity — at about one object per vertex (the one-entry send
// buffer) plus a constant number of slab chunks, serially and on a
// two-worker engine, and bounds the bytes: 4.6 MB serially and 11.2 MB
// on two workers (the parallel outbox buckets), where degree-sized send
// buffers took 5.9 and 12.7 MB.
func TestLockstepWarmupAllocs(t *testing.T) {
	const n, d = 8192, 8
	for _, tc := range []struct {
		workers int
		maxMB   float64
	}{{1, 4.8}, {2, 11.8}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			eng, err := perf.NewFloodEngine(n, d, tc.workers)
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
