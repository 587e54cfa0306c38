package perf

// The multi-core scaling lane: a dedicated workload group sweeping
// network size against engine worker count on the implicit ring
// lattice, so the parallel step-shard path has a measured speedup curve
// instead of a single pinned point. The lattice substrate is implicit
// (graph.RingLattice, d=8) — construction is a couple of field writes
// and adjacency is computed on demand — so the sweep reaches n=10^6
// without materializing a CSR, and setup time stays negligible next to
// the timed rounds. The scenario-level equivalence tests in
// internal/expt pin implicit runs byte-identical to materialized ones,
// which is what licenses these numbers as "the ring scenarios, at
// scale".
//
// CI runs this lane on a multi-core runner (GOMAXPROCS pinned > 1) and
// gates on workers=8 beating serial at n >= 10^5; the full curve lands
// in the uploaded BENCH.json artifact. On a single-core host the
// parallel rows measure the sharding overhead instead of a speedup —
// the record's gomaxprocs field says which reading applies.

import (
	"fmt"
	"time"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
)

// scalingK is the lattice neighborhood radius: degree 2k = 8, matching
// the d=8 H(n,d) scenarios the rest of the suite measures.
const scalingK = 4

// ScalingConfig selects and scales the scaling lane.
type ScalingConfig struct {
	// Quick caps the sweep at n=10^5 and shrinks the timing budget.
	Quick bool
	// Filter, when non-empty, keeps only workloads whose name contains
	// it as a substring.
	Filter string
}

// ScalingSizes returns the network-size axis of the sweep.
func ScalingSizes(quick bool) []int {
	if quick {
		return []int{10_000, 100_000}
	}
	return []int{10_000, 100_000, 1_000_000}
}

// ScalingWorkers is the worker-count axis of the sweep.
var ScalingWorkers = []int{1, 2, 4, 8}

// ScalingName returns the workload name for one (n, workers) cell.
func ScalingName(n, workers int) string {
	return fmt.Sprintf("scaling/flood/n=%d/workers=%d", n, workers)
}

// ScalingSparseName returns the workload name for one (n, workers)
// cell of the sparse virtual-time sweep.
func ScalingSparseName(n, workers int) string {
	return fmt.Sprintf("scaling/vt-sparse/n=%d/workers=%d", n, workers)
}

// NewLatticeFloodEngine builds the flood workload over the implicit
// ring lattice C_n^k: an engine whose neighborhoods are computed on
// demand, one FloodProc per vertex, the given worker count. Exported so
// the testing.B benchmarks exercise the exact workload the scaling
// lane records.
func NewLatticeFloodEngine(n, k, workers int) (*sim.Engine, error) {
	lat, err := graph.NewRingLattice(n, k)
	if err != nil {
		return nil, err
	}
	eng := sim.New(lat, sim.WithSeed(5))
	eng.SetParallelism(workers)
	procs := make([]sim.Proc, n)
	for v := range procs {
		procs[v] = &FloodProc{}
	}
	if err := eng.Attach(procs); err != nil {
		return nil, err
	}
	return eng, nil
}

// scalingSourceSpacing places one pulse source every this many lattice
// vertices in the sparse virtual-time sweep: n=10^5 runs 100 concurrent
// pulse/relay neighborhoods, enough per-tick delivered work for the
// shards to amortize the two phase barriers, while the other ~93% of
// each tick's rows stay untouched — the occupancy bitsets' case.
// Sources sit 1000 apart and a TTL-2 pulse reaches ~2k hops (~8 ring
// positions) to a side, so neighborhoods never overlap and traffic
// stays evenly spread across the contiguous worker shards.
const scalingSourceSpacing = 1000

// NewLatticeSparseEngine builds the multi-source sparse virtual-time
// workload over the implicit ring lattice C_n^k: a pulse source every
// scalingSourceSpacing vertices (Period 8, TTL 2), TickDriven relays
// everywhere else, uniform:1-4 jitter. Exported like
// NewLatticeFloodEngine so the testing.B benchmarks can exercise the
// exact workload the scaling lane records.
func NewLatticeSparseEngine(n, k, workers int) (*sim.Engine, error) {
	lat, err := graph.NewRingLattice(n, k)
	if err != nil {
		return nil, err
	}
	delay, err := sim.ParseDelayModel("uniform:1-4")
	if err != nil {
		return nil, err
	}
	eng := sim.New(lat, sim.WithSeed(5))
	eng.SetDelayModel(delay)
	eng.SetParallelism(workers)
	procs := make([]sim.Proc, n)
	for v := range procs {
		if v%scalingSourceSpacing == 0 {
			procs[v] = &PulseProc{Period: 8, TTL: 2}
		} else {
			procs[v] = &relayProcShared
		}
	}
	if err := eng.Attach(procs); err != nil {
		return nil, err
	}
	// No ReserveInbox/ReserveOutbox here: the arrival-bound reservation
	// would materialize in-degree x max-delay rows for all n vertices —
	// hundreds of MB at n=10^6 — against a workload that only ever
	// occupies a few percent of them. The cells measure throughput, not
	// the allocation gate; capacities reach high water during warmup.
	return eng, nil
}

// scalingWarmup shrinks warm-up with n: at n=10^6 a single round
// already floods 8M arcs, so a handful of rounds reaches the steady
// state the smaller cells need dozens for.
func scalingWarmup(n int) int {
	warmup := 32
	if n >= 100_000 {
		warmup = 8
	}
	if n >= 1_000_000 {
		warmup = 2
	}
	return warmup
}

// scalingBenchmark measures rounds/sec and msgs/sec for one cell of
// the flood sweep; one iteration is one round.
func scalingBenchmark(n, workers int, minTime time.Duration) Benchmark {
	return roundBenchmark(ScalingName(n, workers), scalingWarmup(n), minTime, func() (*sim.Engine, error) {
		return NewLatticeFloodEngine(n, scalingK, workers)
	})
}

// ScalingSuite returns the scaling sweep: every (n, workers) cell of
// ScalingSizes x ScalingWorkers, in size-major order so the per-size
// speedup curve reads off the output directly — first the synchronous
// flood group, then the sparse virtual-time group (the asynchronous
// regime's multi-core claim, gated in CI at n=10^5).
func ScalingSuite(cfg ScalingConfig) []Benchmark {
	micro := time.Second
	if cfg.Quick {
		micro = 300 * time.Millisecond
	}
	var benchmarks []Benchmark
	for _, n := range ScalingSizes(cfg.Quick) {
		for _, workers := range ScalingWorkers {
			benchmarks = append(benchmarks, scalingBenchmark(n, workers, micro))
		}
	}
	// One iteration of a sparse cell is one virtual tick. The sparse
	// cells keep the dense warm-up schedule: a pulse period is 8 ticks,
	// so even the n=10^6 cells see a full burst before timing starts.
	for _, n := range ScalingSizes(cfg.Quick) {
		for _, workers := range ScalingWorkers {
			benchmarks = append(benchmarks, roundBenchmark(ScalingSparseName(n, workers), scalingWarmup(n), micro,
				func() (*sim.Engine, error) { return NewLatticeSparseEngine(n, scalingK, workers) }))
		}
	}
	if cfg.Filter == "" {
		return benchmarks
	}
	kept := benchmarks[:0]
	for _, b := range benchmarks {
		if containsFold(b.Name, cfg.Filter) {
			kept = append(kept, b)
		}
	}
	return kept
}
