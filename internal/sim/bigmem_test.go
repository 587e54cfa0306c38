//go:build bigmem && !race

package sim_test

// Million-slot engine tests, opt-in via -tags=bigmem (a GB-scale live
// heap; excluded from the default and -race suites):
//
//	go test -tags=bigmem -run TestBig ./internal/sim/
//
// These pin the engine's slab budgets at the scale they exist for: an
// engine over an implicit lattice must build and run its first
// rounds with O(slots) bytes and O(chunks) allocations — no adjacency
// materialization, no per-slot stream or buffer allocations.

import (
	"runtime"
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
)

// bigFloodPayload is a constant 64-bit payload.
type bigFloodPayload struct{}

func (bigFloodPayload) SizeBits() int { return 64 }

// bigFloodProc broadcasts every round and never halts.
type bigFloodProc struct{}

func (*bigFloodProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	return env.Broadcast(bigFloodPayload{})
}
func (*bigFloodProc) Halted() bool { return false }

// bigSilentProc never sends and never halts: it isolates the engine's
// own lazy-resolution cost from message-buffer warm-up.
type bigSilentProc struct{}

func (*bigSilentProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing { return nil }
func (*bigSilentProc) Halted() bool                                                   { return false }

// TestBigImplicitLatticeResolution pins the slab budgets at n=10^6:
// construction is a few hundred bytes per slot (slot arrays, the ID
// index, and three degree-hinted slabs of 8M arcs — never adjacency
// copies or eager per-slot random streams), and the first round — the
// one that lazily resolves every neighborhood — allocates O(chunks)
// objects, not O(n). Silent processes keep message-buffer warm-up
// (which is per-arc on any workload's first sending round) out of the
// measurement.
func TestBigImplicitLatticeResolution(t *testing.T) {
	const n, k = 1_000_000, 4
	lat, err := graph.NewRingLattice(n, k)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng := sim.New(lat, sim.WithSeed(7))
	runtime.ReadMemStats(&after)
	consBytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("construction: %d MB, %d allocs",
		consBytes>>20, after.Mallocs-before.Mallocs)
	if consBytes >= 1<<30 {
		t.Errorf("construction allocated %d MB for n=%d; slab budget regressed", consBytes>>20, n)
	}

	procs := make([]sim.Proc, n)
	shared := &bigSilentProc{}
	for v := range procs {
		procs[v] = shared
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := eng.Run(1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	firstRound := after.Mallocs - before.Mallocs
	t.Logf("first round (resolves %d neighborhoods): %d allocs", n, firstRound)
	if firstRound >= n/4 {
		t.Errorf("first round allocated %d objects; degree-hinted pre-carve regressed", firstRound)
	}
}

// TestBigImplicitLatticeFlood floods the implicit lattice at n=10^6:
// every round must deliver exactly 2nk messages (8M), and rounds past
// the warm-up must allocate (almost) nothing. Warm-up is two rounds,
// not one: the unit-latency delivery ring alternates between its two
// slots, so each slot's rows need one flooding round to grow to their
// high-water mark before recycling takes over.
func TestBigImplicitLatticeFlood(t *testing.T) {
	const n, k = 1_000_000, 4
	lat, err := graph.NewRingLattice(n, k)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(lat, sim.WithSeed(7))
	procs := make([]sim.Proc, n)
	shared := &bigFloodProc{}
	for v := range procs {
		procs[v] = shared
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(2); err != nil { // warm-up: both inbox buffers + scratch
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.Run(2); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	steady := after.Mallocs - before.Mallocs
	t.Logf("rounds 3-4: %d allocs", steady)
	if steady >= n/4 {
		t.Errorf("steady-state flood rounds allocated %d objects; buffer recycling regressed", steady)
	}
	if got, want := eng.Metrics().Messages, int64(4)*int64(2*k)*int64(n); got != want {
		t.Fatalf("4 flood rounds delivered %d messages, want %d", got, want)
	}
}
