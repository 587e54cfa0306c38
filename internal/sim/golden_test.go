package sim_test

// Golden determinism tests for the parallel engine: a parallel run must
// be byte-for-byte identical to a serial run with the same seed — same
// Metrics (Rounds, Messages, Bits, Capped, MessagesByRound, ...), same
// per-node outcomes, same inbox delivery order. One CONGEST counting
// scenario (edge capacity enforced, beacon spammers, so cap decisions
// are exercised) and one LOCAL counting scenario (fake-network
// adversaries sharing a mutable world, so the Sequential pass is
// exercised) are each run serially and with several worker counts.

import (
	"reflect"
	"testing"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// workerCounts covers serial, an uneven shard split, and more shards
// than cores.
var workerCounts = []int{1, 3, 8}

func mustHND(t *testing.T, n, d int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.HND(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runScenario executes build() on a fresh engine with the given worker
// count and returns the metrics, outcomes, and final inboxes.
func runScenario(t *testing.T, g *graph.Graph, seed uint64, workers, maxRounds int,
	capBits int, build func(eng *sim.Engine) []sim.Proc) (sim.Metrics, []counting.Outcome, int) {
	t.Helper()
	eng := sim.New(g, sim.WithSeed(seed))
	eng.SetParallelism(workers)
	if capBits > 0 {
		eng.SetEdgeCapacity(capBits)
	}
	procs := build(eng)
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	rounds, err := eng.Run(maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Metrics(), counting.Outcomes(procs), rounds
}

func assertIdentical(t *testing.T, workers int, wantM, gotM sim.Metrics,
	wantO, gotO []counting.Outcome, wantR, gotR int) {
	t.Helper()
	if wantR != gotR {
		t.Errorf("workers=%d: rounds %d != serial %d", workers, gotR, wantR)
	}
	if !reflect.DeepEqual(wantM, gotM) {
		t.Errorf("workers=%d: metrics diverge:\nserial:   %+v\nparallel: %+v", workers, wantM, gotM)
	}
	if !reflect.DeepEqual(wantO, gotO) {
		for v := range wantO {
			if wantO[v] != gotO[v] {
				t.Errorf("workers=%d: vertex %d outcome %+v != serial %+v", workers, v, gotO[v], wantO[v])
			}
		}
	}
}

// TestGoldenCongestSerialParallel: the randomized CONGEST counting
// protocol under beacon spam with the edge capacity enforced. The cap is
// set low enough that some messages are dropped, so the parallel
// engine's per-sender budget accounting is exercised, not just present.
func TestGoldenCongestSerialParallel(t *testing.T) {
	const n, d = 192, 8
	g := mustHND(t, n, d, 1001)
	rng := xrand.New(1002)
	byz, err := byzantine.RandomPlacement(g, 6, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 8
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	build := func(eng *sim.Engine) []sim.Proc {
		procs := make([]sim.Proc, n)
		spamRng := xrand.New(1003)
		for v := range procs {
			if byz[v] {
				procs[v] = byzantine.NewBeaconSpammer(params.Schedule, 6, true, spamRng.SplitN("spam", v))
			} else {
				procs[v] = counting.NewCongestProc(params)
			}
		}
		return procs
	}
	// 512 bits/edge/round: enough for short beacons, tight enough that
	// long-path beacons and spam get capped.
	const capBits = 512
	wantM, wantO, wantR := runScenario(t, g, 7, 1, maxRounds, capBits, build)
	if wantM.Capped == 0 {
		t.Fatal("scenario exercises no cap decisions; lower the edge capacity")
	}
	if wantM.Messages == 0 {
		t.Fatal("scenario delivered no messages")
	}
	for _, w := range workerCounts[1:] {
		gotM, gotO, gotR := runScenario(t, g, 7, w, maxRounds, capBits, build)
		assertIdentical(t, w, wantM, gotM, wantO, gotO, wantR, gotR)
	}
}

// TestParallelFirstReadOfFreshGraph: an engine reads a graph only
// through Topology, so on a parallel engine's first round several step
// workers may be the first to read a fresh graph's CSR at once, which
// the graph builds under its mutex. Each run here starts on a graph
// nothing has read yet, and the parallel runs match the serial one.
func TestParallelFirstReadOfFreshGraph(t *testing.T) {
	const n, d = 256, 8
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 4
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	build := func(eng *sim.Engine) []sim.Proc {
		procs := make([]sim.Proc, n)
		for v := range procs {
			procs[v] = counting.NewCongestProc(params)
		}
		return procs
	}
	wantM, wantO, wantR := runScenario(t, mustHND(t, n, d, 3001), 7, 1, maxRounds, 0, build)
	for _, w := range workerCounts[1:] {
		gotM, gotO, gotR := runScenario(t, mustHND(t, n, d, 3001), 7, w, maxRounds, 0, build)
		assertIdentical(t, w, wantM, gotM, wantO, gotO, wantR, gotR)
	}
}

// TestGoldenLocalSerialParallel: the deterministic LOCAL counting
// protocol under the consistent fake-network attack. The adversaries
// share one mutable FakeWorld and are marked Sequential, so this pins
// down the parallel engine's in-order sequential pass.
func TestGoldenLocalSerialParallel(t *testing.T) {
	const n, d = 96, 8
	delta := d + 2
	g := mustHND(t, n, d, 2001)
	rng := xrand.New(2002)
	byz, err := byzantine.RandomPlacement(g, 5, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultLocalParams(delta)
	build := func(eng *sim.Engine) []sim.Proc {
		// A fresh world per run: the engine mutates it through AttachK.
		world, err := byzantine.NewFakeWorld(2*n, d, delta, 5, xrand.New(2003))
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]sim.Proc, n)
		for v := range procs {
			if byz[v] {
				procs[v] = byzantine.NewFakeNetworkLocal(world, 1)
			} else {
				procs[v] = counting.NewLocalProc(params)
			}
		}
		return procs
	}
	wantM, wantO, wantR := runScenario(t, g, 8, 1, params.MaxRounds+8, 0, build)
	if wantM.Messages == 0 {
		t.Fatal("scenario delivered no messages")
	}
	decided := 0
	for v, o := range wantO {
		if !byz[v] && o.Decided {
			decided++
		}
	}
	if decided == 0 {
		t.Fatal("no honest node decided; scenario is degenerate")
	}
	for _, w := range workerCounts[1:] {
		gotM, gotO, gotR := runScenario(t, g, 8, w, params.MaxRounds+8, 0, build)
		assertIdentical(t, w, wantM, gotM, wantO, gotO, wantR, gotR)
	}
}

// TestParallelStopConditionAndHalt: early-exit paths (all-halted and the
// stop condition) must fire on the same round in both modes.
func TestParallelStopConditionAndHalt(t *testing.T) {
	const n, d = 128, 8
	g := mustHND(t, n, d, 3001)
	params := counting.DefaultCongestParams(d)
	run := func(workers int, stopAt int) (int, sim.Metrics) {
		eng := sim.New(g, sim.WithSeed(9))
		eng.SetParallelism(workers)
		procs := make([]sim.Proc, n)
		for v := range procs {
			procs[v] = counting.NewCongestProc(params)
		}
		if err := eng.Attach(procs); err != nil {
			t.Fatal(err)
		}
		if stopAt > 0 {
			eng.SetStopCondition(func(round int) bool { return round >= stopAt })
		}
		rounds, err := eng.Run(params.Schedule.RoundsThroughPhase(params.MaxPhase + 1))
		if err != nil {
			t.Fatal(err)
		}
		return rounds, eng.Metrics()
	}
	for _, stopAt := range []int{0, 25} {
		wantR, wantM := run(1, stopAt)
		for _, w := range workerCounts[1:] {
			gotR, gotM := run(w, stopAt)
			if gotR != wantR {
				t.Errorf("stopAt=%d workers=%d: rounds %d != serial %d", stopAt, w, gotR, wantR)
			}
			if !reflect.DeepEqual(wantM, gotM) {
				t.Errorf("stopAt=%d workers=%d: metrics diverge", stopAt, w)
			}
		}
	}
}
