//go:build !race

package sim_test

// Warm-up allocation gate for lockstep engines. Algorithm 2 and the
// flood send at most one message per edge per round, so an inbox row
// carved at its destination's degree on first delivery, and a broadcast
// buffer reserved at the degree, never regrow. Growing both by doubling
// instead cost 12 heap objects per vertex over a flood's first three
// rounds, most of them garbage the collector marks at scale. The race
// detector changes allocation behavior, so this file is excluded under
// -race (same convention as topo_alloc_test.go).

import (
	"fmt"
	"testing"

	"byzcount/internal/perf"
)

// TestLockstepWarmupAllocs pins the first Run(3) of a fresh flood
// engine — the rounds in which every ring row and broadcast buffer
// gets its first capacity — at about one object per vertex (the
// broadcast buffer) plus a constant number of slab chunks, serially and
// on a two-worker engine.
func TestLockstepWarmupAllocs(t *testing.T) {
	const n, d = 8192, 8
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng, err := perf.NewFloodEngine(n, d, workers)
			if err != nil {
				t.Fatal(err)
			}
			allocs, bytes := heapDuring(func() {
				if _, err := eng.Run(3); err != nil {
					t.Fatal(err)
				}
			})
			perVertex := float64(allocs) / n
			t.Logf("first Run(3): %d objects (%.2f per vertex), %.1f MB", allocs, perVertex, float64(bytes)/(1<<20))
			if perVertex > 1.1 {
				t.Errorf("first Run(3) of a %d-vertex flood allocated %d objects (%.2f per vertex), want <= 1.1 per vertex",
					n, allocs, perVertex)
			}
		})
	}
}
