// Package bench is the benchmark harness of the reproduction: one
// testing.B sub-benchmark per experiment (BenchmarkExperiments/E1 ...
// /E20, each regenerating its table in quick mode; see DESIGN.md for
// the experiment index), plus micro-benchmarks for the substrates the
// experiments stand on.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package bench

import (
	"fmt"
	"runtime"
	"testing"

	"byzcount/internal/counting"
	"byzcount/internal/expt"
	"byzcount/internal/graph"
	"byzcount/internal/perf"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// BenchmarkExperiments regenerates every experiment's table, one
// sub-benchmark per expt.IDs() entry, so a new experiment is timed
// without a new function here.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range expt.IDs() {
		b.Run(id, func(b *testing.B) {
			// The seed is pinned: every iteration regenerates the
			// identical table, so ns/op measures one workload and is
			// comparable across runs and commits (a seed varying with i
			// would average over different graphs and adversary draws).
			for i := 0; i < b.N; i++ {
				tbl, err := expt.Run(id, expt.Config{Seed: 42, Trials: 1, Quick: true, Parallel: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(tbl.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// Driver-level parallel benchmarks: the same table regenerated through
// the sweep driver with all (row, trial) cells running concurrently.
// Tables are byte-identical to the serial variants; only wall-clock
// changes. Trials=3 gives the driver enough cells per row to spread.

func benchExperimentParallel(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := expt.Config{Seed: 42, Trials: 3, Quick: true,
			Parallel: runtime.GOMAXPROCS(0)}
		if _, err := expt.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchExperimentSerial3(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := expt.Config{Seed: 42, Trials: 3, Quick: true, Parallel: 1}
		if _, err := expt.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1DriverSerial(b *testing.B)   { benchExperimentSerial3(b, "E1") }
func BenchmarkE1DriverParallel(b *testing.B) { benchExperimentParallel(b, "E1") }
func BenchmarkE3DriverSerial(b *testing.B)   { benchExperimentSerial3(b, "E3") }
func BenchmarkE3DriverParallel(b *testing.B) { benchExperimentParallel(b, "E3") }
func BenchmarkE9DriverSerial(b *testing.B)   { benchExperimentSerial3(b, "E9") }
func BenchmarkE9DriverParallel(b *testing.B) { benchExperimentParallel(b, "E9") }

// Substrate micro-benchmarks.

func BenchmarkHNDGeneration(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.HND(n, 8, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWattsStrogatzGeneration times the small-world generator. The
// seed (map-dedup) implementation measured 3.68 ms/op with 13651
// allocs/op at n=4096 on the 1-core CI-class box; the sorted-adjacency
// binary-search rewrite measured 1.27 ms/op with 4223 allocs/op on the
// same box (see CHANGES.md for the full before/after table).
func BenchmarkWattsStrogatzGeneration(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graph.WattsStrogatz(4096, 4, 0.2, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimpleRegularGeneration times the Steger-Wormald generator
// (per-vertex sorted slab vs the seed's n hash maps per attempt).
func BenchmarkSimpleRegularGeneration(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graph.SimpleRegular(1024, 8, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendBall times the zero-alloc ball accessor the placement
// machinery and expansion sweeps lean on.
func BenchmarkAppendBall(b *testing.B) {
	g, err := graph.HND(4096, 8, xrand.New(2))
	if err != nil {
		b.Fatal(err)
	}
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.AppendBall(buf[:0], i%g.N(), 3)
	}
}

func BenchmarkBFS(b *testing.B) {
	rng := xrand.New(2)
	g, err := graph.HND(8192, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.N())
	}
}

func BenchmarkTreeLikeCheck(b *testing.B) {
	rng := xrand.New(3)
	g, err := graph.HND(4096, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	r := graph.TreeLikeRadius(4096, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.IsLocallyTreeLike(i%g.N(), r, 8)
	}
}

// roundRunner is the surface shared by *sim.Engine and *dynamic.Runner
// that the round-throughput benchmarks drive.
type roundRunner interface {
	Run(maxRounds int) (int, error)
	Metrics() sim.Metrics
}

// benchRoundThroughput measures steady-state round throughput on eng.
// The warm-up run grows every scratch buffer and inbox slab to its
// high-water mark before the timer starts, so allocs/op reports the
// steady state: 0.
func benchRoundThroughput(b *testing.B, eng roundRunner) {
	b.Helper()
	if _, err := eng.Run(64); err != nil {
		b.Fatal(err)
	}
	msgsBefore := eng.Metrics().Messages
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := eng.Run(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	msgs := eng.Metrics().Messages - msgsBefore
	if b.N > 0 {
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/round")
		elapsed := b.Elapsed().Seconds()
		if elapsed > 0 {
			b.ReportMetric(float64(msgs)/elapsed/1e6, "Mmsgs/sec")
		}
	}
}

// benchEngineRoundThroughput times the shared flood workload
// (perf.NewVTFloodEngine with the empty spec — the same workload the
// BENCH.json trajectory records as engine/flood/*).
func benchEngineRoundThroughput(b *testing.B, workers int) {
	eng, err := perf.NewVTFloodEngine(1024, 8, workers, "")
	if err != nil {
		b.Fatal(err)
	}
	benchRoundThroughput(b, eng)
}

func BenchmarkEngineRoundThroughput(b *testing.B) {
	benchEngineRoundThroughput(b, 1)
}

// BenchmarkEngineRoundThroughputParallel shards Step calls across
// GOMAXPROCS workers. The execution (and the msgs/round metric) is
// bit-identical to the serial benchmark; Mmsgs/sec measures the
// speedup. On a single-core runner this degenerates to the serial
// engine plus goroutine overhead — compare the two only on multi-core.
func BenchmarkEngineRoundThroughputParallel(b *testing.B) {
	benchEngineRoundThroughput(b, runtime.GOMAXPROCS(0))
}

// BenchmarkEngineRoundThroughputParallel8 pins 8 workers regardless of
// GOMAXPROCS, so shard/merge overhead is measurable even on small
// machines.
func BenchmarkEngineRoundThroughputParallel8(b *testing.B) {
	benchEngineRoundThroughput(b, 8)
}

// benchVTFloodThroughput times the flood workload under a delay model
// (perf.NewVTFloodEngine — BENCH.json's engine/vt-flood/*): every
// message takes a per-edge latency and rides the calendar ring to its
// delivery round. "uniform:1-4" spreads each round's sends over a
// four-round window, the real reordering case. Allocs/op reports the
// steady state: 0, pinned by TestSteadyStateAllocsVT*.
func benchVTFloodThroughput(b *testing.B, workers int, delaySpec string) {
	eng, err := perf.NewVTFloodEngine(1024, 8, workers, delaySpec)
	if err != nil {
		b.Fatal(err)
	}
	benchRoundThroughput(b, eng)
}

func BenchmarkEngineVTJitterRoundThroughput(b *testing.B) {
	benchVTFloodThroughput(b, 1, "uniform:1-4")
}

// BenchmarkEngineVTJitterRoundThroughputParallel8: jittered delivery on
// the sharded engine — workers bucket (destination shard, delay) pairs
// locally and the merge phase drains them in sender order, so the
// execution is bit-identical to the serial run.
func BenchmarkEngineVTJitterRoundThroughputParallel8(b *testing.B) {
	benchVTFloodThroughput(b, 8, "uniform:1-4")
}

// BenchmarkEngineVTSparseRoundThroughput times the pulse/relay workload
// (perf.NewVTSparseEngine — BENCH.json's engine/vt-flood/sparse/*):
// vertex 0 pulses a TTL-limited broadcast every 8 rounds, message-driven
// relays propagate it under uniform:1-4 jitter, and the engine's
// occupancy lane delivers and clears only the ring rows that received
// something. The Parallel8 variant runs the same lane on the sharded
// engine — per-shard union walks, occupancy folded in during merge —
// and the Full variant runs the identical workload with unmarked
// relays — every tick pays the O(n)-row scan — so the trio isolates the
// sparse lane's win and its multi-core behavior.
func BenchmarkEngineVTSparseRoundThroughput(b *testing.B) {
	eng, err := perf.NewVTSparseEngine(1024, 8, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	benchRoundThroughput(b, eng)
}

func BenchmarkEngineVTSparseRoundThroughputParallel8(b *testing.B) {
	eng, err := perf.NewVTSparseEngine(1024, 8, 8, false)
	if err != nil {
		b.Fatal(err)
	}
	benchRoundThroughput(b, eng)
}

func BenchmarkEngineVTSparseRoundThroughputFull(b *testing.B) {
	eng, err := perf.NewVTSparseEngine(1024, 8, 1, true)
	if err != nil {
		b.Fatal(err)
	}
	benchRoundThroughput(b, eng)
}

// benchVTSkipThroughput times the token workload (perf.NewVTSkipEngine
// — BENCH.json's engine/vt-skip/*): one token circulating a ring
// lattice under uniform:1-4 jitter, so most virtual ticks deliver
// nothing. With skipping on, the scheduler fast-forwards through empty
// ticks in O(1) each (an O(shards) reduction on the parallel engine,
// which bypasses the pool entirely on a skipped tick); with skipping
// off (or with unmarked relays, the Full variant) every tick executes.
// One iteration is one virtual tick either way — skipped ticks still
// advance the clock and the metrics.
func benchVTSkipThroughput(b *testing.B, workers int, dense, skip bool) {
	eng, err := perf.NewVTSkipEngine(1024, workers, dense)
	if err != nil {
		b.Fatal(err)
	}
	eng.SetTickSkip(skip)
	benchRoundThroughput(b, eng)
}

func BenchmarkEngineVTSkipRoundThroughput(b *testing.B) {
	benchVTSkipThroughput(b, 1, false, true)
}

func BenchmarkEngineVTSkipRoundThroughputParallel8(b *testing.B) {
	benchVTSkipThroughput(b, 8, false, true)
}

func BenchmarkEngineVTSkipRoundThroughputNoSkip(b *testing.B) {
	benchVTSkipThroughput(b, 1, false, false)
}

func BenchmarkEngineVTSkipRoundThroughputFull(b *testing.B) {
	benchVTSkipThroughput(b, 1, true, true)
}

// benchEngineChurnThroughput times the churn flood workload
// (perf.NewChurnFloodEngine — the same workload BENCH.json records as
// engine/churn-flood/*): every round two nodes leave, two join, the
// cycles repair locally, and the touched vertices re-resolve their
// neighborhoods against the bumped topology epoch. Allocs/op reports
// the steady state: 0, exactly like the static flood.
func benchEngineChurnThroughput(b *testing.B, workers int) {
	run, err := perf.NewChurnFloodEngine(1024, 8, workers, 2)
	if err != nil {
		b.Fatal(err)
	}
	benchRoundThroughput(b, run)
}

func BenchmarkEngineChurnRoundThroughput(b *testing.B) {
	benchEngineChurnThroughput(b, 1)
}

// BenchmarkEngineChurnRoundThroughputParallel8: the churn flood on the
// sharded engine (bit-identical execution; membership changes apply
// between rounds on the coordinator).
func BenchmarkEngineChurnRoundThroughputParallel8(b *testing.B) {
	benchEngineChurnThroughput(b, 8)
}

// benchEngineChurnByzThroughput times the combined churn + adversary
// workload (perf.NewChurnByzEngine — BENCH.json's engine/churn-byz/*):
// two leaves and two joins per round while a roster keeps 1/16 of the
// membership Byzantine, honest slots flooding and Byzantine slots
// spamming beacon-sized payloads. Allocs/op reports the steady state: 0.
func benchEngineChurnByzThroughput(b *testing.B, workers int) {
	run, err := perf.NewChurnByzEngine(1024, 8, workers, 2)
	if err != nil {
		b.Fatal(err)
	}
	benchRoundThroughput(b, run)
}

func BenchmarkEngineChurnByzRoundThroughput(b *testing.B) {
	benchEngineChurnByzThroughput(b, 1)
}

func BenchmarkEngineChurnByzRoundThroughputParallel8(b *testing.B) {
	benchEngineChurnByzThroughput(b, 8)
}

// benchLatticeRoundThroughput times the flood on an implicit C_n^4
// ring lattice (perf.NewLatticeFloodEngine — the scaling lane's cell
// workload, BENCH.json's scaling/flood/*): neighborhoods come from
// closed-form arithmetic resolved lazily into degree-hinted slabs, so
// this measures the engine's round loop without any materialized
// adjacency behind it. Allocs/op reports the steady state: 0.
func benchLatticeRoundThroughput(b *testing.B, workers int) {
	eng, err := perf.NewLatticeFloodEngine(4096, 4, workers)
	if err != nil {
		b.Fatal(err)
	}
	benchRoundThroughput(b, eng)
}

func BenchmarkLatticeRoundThroughput(b *testing.B) {
	benchLatticeRoundThroughput(b, 1)
}

func BenchmarkLatticeRoundThroughputParallel8(b *testing.B) {
	benchLatticeRoundThroughput(b, 8)
}

// BenchmarkImplicitEngineConstruction times standing up a topology
// engine over an implicit lattice — the path the million-vertex lane
// takes. The budget is three degree-hinted slab carves plus the slot
// arrays; compare against BenchmarkGraphFinalize for the materialized
// counterpart's cost.
func BenchmarkImplicitEngineConstruction(b *testing.B) {
	lat, err := graph.NewRingLattice(4096, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.New(lat, sim.WithSeed(7))
	}
}

func BenchmarkCongestBenignRun(b *testing.B) {
	rng := xrand.New(6)
	g, err := graph.HND(256, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	params := counting.DefaultCongestParams(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.New(g, sim.WithSeed(uint64(i)))
		procs := make([]sim.Proc, g.N())
		for v := range procs {
			procs[v] = counting.NewCongestProc(params)
		}
		if err := eng.Attach(procs); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalBenignRun(b *testing.B) {
	rng := xrand.New(7)
	g, err := graph.HND(128, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	params := counting.DefaultLocalParams(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.New(g, sim.WithSeed(uint64(i)))
		procs := make([]sim.Proc, g.N())
		for v := range procs {
			procs[v] = counting.NewLocalProc(params)
		}
		if err := eng.Attach(procs); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(params.MaxRounds + 8); err != nil {
			b.Fatal(err)
		}
	}
}
