package expt

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

func TestScenarioValidate(t *testing.T) {
	bad := []struct {
		sc   Scenario
		want string // substring the error must teach
	}{
		{Scenario{Proto: "bogus"}, "congest"},
		{Scenario{Substrate: "bogus"}, "hnd"},
		{Scenario{Adversary: "bogus", Byz: 1}, "spam"},
		{Scenario{Placement: "bogus"}, "clustered"},
		{Scenario{Proto: "geometric", Adversary: "spam", Byz: 1}, "schedule-driven"},
		{Scenario{Substrate: "ring", Churn: ChurnProfile{Leaves: 1, Joins: 1}, Adversary: "silent"}, "hnd"},
		{Scenario{ByzJoiners: 1, Adversary: "silent"}, "churn"},
		{Scenario{ByzJoiners: 1, ByzFrac: 0.05, Adversary: "silent",
			Churn: ChurnProfile{Leaves: 1, Joins: 1}}, "benign"},
		{Scenario{Byz: 2}, "adversary"}, // Byzantine nodes with adversary "none"
		{Scenario{N: 2}, "degenerate"},
		{Scenario{N: 2, Churn: ChurnProfile{Leaves: 1, Joins: 1}}, "degenerate"},
		// A leave needs more than 3 nodes alive: past n-3 per round the
		// joins outgrow the leaves and the network grows to k+3 nodes.
		{Scenario{N: 64, Churn: ChurnProfile{Leaves: 62, Joins: 62}}, "n-3 = 61"},
		{Scenario{N: 64, Churn: ChurnProfile{Leaves: 62}}, "n-3 = 61"},
		{Scenario{N: 64, Churn: ChurnProfile{Joins: 62}}, "n-3 = 61"},
		{Scenario{N: 64, Churn: ChurnProfile{Leaves: math.MaxInt, Joins: math.MaxInt}}, "n-3 = 61"},
		{Scenario{Proto: "congest", D: 1}, `protocol "congest" needs degree d >= 2, got d=1`},
		{Scenario{Delay: "bogus"}, "delay"},
		{Scenario{Delay: "uniform:4-1"}, "uniform"},
		{Scenario{Fault: "bogus"}, "fault"},
		{Scenario{Fault: "drop:1.5"}, "drop"},
	}
	for _, tc := range bad {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("scenario %+v accepted", tc.sc)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("scenario %+v: error %q does not mention %q", tc.sc, err, tc.want)
		}
	}
	for _, good := range []Scenario{
		{Proto: "congest", Adversary: "spam", Byz: 4, Churn: ChurnProfile{Leaves: 1, Joins: 1}},
		{N: 64, Churn: ChurnProfile{Leaves: 61, Joins: 61}},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid scenario %+v rejected: %v", good, err)
		}
	}
	// The d >= 2 bound is the CONGEST protocol's alone.
	if err := (Scenario{Proto: "local", D: 1}).Validate(); err != nil {
		t.Errorf("local at d=1 rejected: %v", err)
	}
}

func TestScenarioLabel(t *testing.T) {
	sc := Scenario{Proto: "congest", Adversary: "spam", Placement: "clustered",
		N: 128, Byz: 6, Churn: ChurnProfile{Leaves: 2, Joins: 2}}
	if got, want := sc.Label(), "congest/hnd/spam/clustered/n=128/byz=6/churn=2-2"; got != want {
		t.Errorf("label = %q, want %q", got, want)
	}
	benign := Scenario{}
	if got, want := benign.Label(), "congest/hnd/none/n=256"; got != want {
		t.Errorf("benign label = %q, want %q", got, want)
	}
	// The label is the matrix dedupe key and the sweep sub-seed: every
	// cell-selecting field must distinguish it — notably the full churn
	// profile (quiesce round and stream derivation included).
	distinct := []Scenario{
		sc,
		{Proto: "congest", Adversary: "spam", Placement: "clustered", N: 128, Byz: 6,
			Churn: ChurnProfile{Leaves: 2, Joins: 2, StopAfter: 50}},
		{Proto: "congest", Adversary: "spam", Placement: "clustered", N: 128, Byz: 6,
			Churn: ChurnProfile{Leaves: 2, Joins: 2, Mixed: true}},
		{Proto: "congest", Adversary: "spam", Placement: "clustered", N: 128, D: 4, Byz: 6,
			Churn: ChurnProfile{Leaves: 2, Joins: 2}},
		{Dynamic: true},
		{},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		if j, dup := seen[s.Label()]; dup {
			t.Errorf("scenarios %d and %d collapse onto label %q", i, j, s.Label())
		}
		seen[s.Label()] = i
	}
	// The delivery axes select cells too: specs appear verbatim, and
	// fault "none" collapses onto the default.
	vt := Scenario{Delay: "gst:32/uniform:1-6", Fault: "partition:2@16-48"}
	if got, want := vt.Label(), "congest/hnd/none/n=256/delay=gst:32/uniform:1-6/fault=partition:2@16-48"; got != want {
		t.Errorf("virtual-time label = %q, want %q", got, want)
	}
	if got, want := (Scenario{Fault: "none"}).Label(), (Scenario{}).Label(); got != want {
		t.Errorf("fault \"none\" label = %q, want the default %q", got, want)
	}
}

// TestScenarioVirtualTimeDeterminism: cells on the event-ring scheduler
// — jittered latency, GST, drops, partitions, on static and churning
// substrates — are pure functions of the seed and bit-identical across
// engine worker counts, exactly like their synchronous siblings.
func TestScenarioVirtualTimeDeterminism(t *testing.T) {
	cells := []Scenario{
		{Proto: "congest", N: 64, D: 8, MaxPhase: 6, Delay: "uniform:1-4"},
		{Proto: "congest", N: 64, D: 8, MaxPhase: 6, Delay: "gst:12/uniform:1-6", Fault: "drop:0.05"},
		{Proto: "congest", N: 64, D: 8, MaxPhase: 6, Delay: "unit", Fault: "partition:2@8-30"},
		{Proto: "congest", N: 64, D: 8, MaxPhase: 6, Delay: "geo:0.5@6",
			Churn: ChurnProfile{Leaves: 1, Joins: 1, StopAfter: 30, Mixed: true}},
	}
	for _, sc := range cells {
		sc := sc
		t.Run(sc.Label(), func(t *testing.T) {
			t.Parallel()
			type snap struct {
				outcomes any
				metrics  any
				rounds   int
			}
			runOnce := func(workers int) snap {
				t.Helper()
				out, err := RunScenario(sc, xrand.New(99), RunOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return snap{out.Outcomes, out.Metrics, out.Rounds}
			}
			serial := runOnce(1)
			if serial.rounds == 0 {
				t.Fatal("degenerate run")
			}
			for _, w := range []int{3, 8} {
				if got := runOnce(w); !reflect.DeepEqual(serial, got) {
					t.Errorf("workers=%d diverges from serial", w)
				}
			}
		})
	}
}

func TestMatrixScenarios(t *testing.T) {
	m := Matrix{
		Protos:      []string{"congest"},
		Adversaries: []string{"none", "spam"},
		ByzFracs:    []float64{0, 0.05},
		Churns:      []ChurnProfile{{}, {Leaves: 2, Joins: 2, StopAfter: 50, Mixed: true}},
		Ns:          []int{64},
	}
	scs, skipped, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	// 2 adversaries x 2 fracs x 2 churns = 8 raw cells; (none, 0.05)
	// pairs are skipped (2) and (spam, 0) collapses onto (none, 0) so
	// the dedupe drops 2 more.
	if len(scs) != 4 || skipped != 2 {
		labels := make([]string, len(scs))
		for i, sc := range scs {
			labels[i] = sc.Label()
		}
		t.Errorf("got %d cells (skipped %d): %v", len(scs), skipped, labels)
	}
	if _, _, err := (Matrix{Adversaries: []string{"bogus"}}).Scenarios(); err == nil {
		t.Error("unknown adversary axis value accepted")
	}
}

// TestMatrixIdenticalAcrossParallelism: matrix tables, like experiment
// tables, are byte-identical whatever the sweep concurrency.
func TestMatrixIdenticalAcrossParallelism(t *testing.T) {
	m := Matrix{
		Adversaries: []string{"none", "spam"},
		ByzFracs:    []float64{0, 0.1},
		Churns:      []ChurnProfile{{Leaves: 2, Joins: 2, StopAfter: 30, Mixed: true}},
		Ns:          []int{48},
		MaxPhase:    6,
	}
	want, err := RunMatrixCtx(context.Background(), Config{Seed: 11, Trials: 2, Parallel: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMatrixCtx(context.Background(), Config{Seed: 11, Trials: 2, Parallel: 8}, m)
	if err != nil {
		t.Fatal(err)
	}
	if want.Render() != got.Render() {
		t.Errorf("matrix differs across parallelism:\n-- serial --\n%s\n-- parallel --\n%s",
			want.Render(), got.Render())
	}
}

// TestScenarioChurnByzDeterminism: the combined churn + Byzantine path
// is a pure function of the seed and bit-identical across engine worker
// counts — metrics, roster state, and membership counts all agree.
func TestScenarioChurnByzDeterminism(t *testing.T) {
	sc := Scenario{
		Proto: "congest", Adversary: "spam", Placement: "clustered",
		N: 64, D: 8, ByzFrac: 0.1, MaxPhase: 6,
		Churn: ChurnProfile{Leaves: 2, Joins: 2, StopAfter: 40, Mixed: true},
	}
	type snap struct {
		metrics  any
		rounds   int
		joined   int
		byzCount int
		frac     float64
	}
	runOnce := func(workers int) snap {
		t.Helper()
		out, err := RunScenario(sc, xrand.New(99), RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return snap{out.Metrics, out.Rounds, out.Runner.Joined(), out.Roster.Count(), out.Roster.Fraction()}
	}
	serial := runOnce(1)
	if serial.joined == 0 || serial.byzCount == 0 {
		t.Fatalf("degenerate scenario: %+v", serial)
	}
	for _, w := range []int{4, 8} {
		if got := runOnce(w); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d diverges:\nserial: %+v\ngot:    %+v", w, serial, got)
		}
	}
}

// TestScenarioStaticMatchesHandWired: the scenario layer's static path
// is the hand-wired runner decomposed, not a reimplementation. The E3
// cell shape wired by hand over the run body — H(n,d) built from
// "graph", a random placement from "place", spammers from
// SplitN("spam", v), the engine seeded from "run" — must produce
// RunScenario's exact outcome. This pins the split-label contract the
// rebased tables rest on, apart from their digests.
func TestScenarioStaticMatchesHandWired(t *testing.T) {
	const n, d, byzN, maxPhase, seed = 64, 8, 4, 6, 1234
	out, err := RunScenario(Scenario{
		Proto: "congest", Adversary: "spam", Placement: "random",
		N: n, D: d, Byz: byzN, MaxPhase: maxPhase, StopFrac: 1,
	}, xrand.New(seed), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds == 0 || out.Metrics.Messages == 0 {
		t.Fatal("degenerate run")
	}
	rng := xrand.New(seed)
	g, err := graph.HND(n, d, rng.Split("graph"))
	if err != nil {
		t.Fatal(err)
	}
	byz, err := byzantine.RandomPlacement(g, byzN, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = maxPhase
	hand, err := runProcs(sim.New(g, sim.WithSeed(rng.Split("run").Uint64())), byz,
		func(int) sim.Proc { return counting.NewCongestProc(params) },
		func(v int) sim.Proc {
			return byzantine.NewBeaconSpammer(params.Schedule, 6, false, rng.SplitN("spam", v))
		},
		params.Schedule.RoundsThroughPhase(maxPhase+1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Outcomes, hand.Outcomes) {
		t.Error("outcomes diverge from the hand-wired run")
	}
	if out.Rounds != hand.Rounds {
		t.Errorf("rounds %d, hand-wired %d", out.Rounds, hand.Rounds)
	}
	if !reflect.DeepEqual(out.Metrics, hand.Metrics) {
		t.Errorf("metrics diverge from the hand-wired run:\nscenario: %+v\nhand:     %+v", out.Metrics, hand.Metrics)
	}
}

// TestCongestSlabAllocs: a static congest cell's honest procs come from
// the run's slab, so building them through the protocol axis costs the
// same allocations at n=1024 and n=16384. A proc past the slab (a
// joiner), and every proc of a run whose churn detaches members, is one
// allocation of its own, so it can be collected once it departs. The
// ablation's parameters reach the slab.
func TestCongestSlabAllocs(t *testing.T) {
	// A process's first collection starts the runtime's mark workers;
	// run it here, so their allocations land in no measured run.
	runtime.GC()
	for _, proto := range []string{"congest", "congest-noblacklist"} {
		placed := func(sc Scenario, n int) *scenarioCtx {
			ctx := newScenarioCtx(sc, nil)
			ctx.byz = make([]bool, n)
			ctx.byz[0] = true
			for v := 1; v < n; v++ {
				Protocols[proto].Proc(ctx, v)
			}
			return ctx
		}
		static := Scenario{Proto: proto, D: 8}
		build := func(n int) float64 { return testing.AllocsPerRun(5, func() { placed(static, n) }) }
		if small, large := build(1024), build(16384); small != large {
			t.Errorf("%s: building the procs costs %.0f allocations at n=1024 and %.0f at n=16384", proto, small, large)
		}
		ctx := placed(static, 4)
		joiners := make([]sim.Proc, 0, 6)
		if allocs := testing.AllocsPerRun(5, func() { joiners = append(joiners, Protocols[proto].Proc(ctx, 4)) }); allocs != 1 {
			t.Errorf("%s: a joiner costs %.0f allocations, want 1", proto, allocs)
		}
		if joiners[0] == joiners[1] || ctx.slab.params.DisableBlacklist != (proto == "congest-noblacklist") {
			t.Errorf("%s: the slab hands out one proc twice or drops the protocol's params", proto)
		}
		churning := newScenarioCtx(Scenario{Proto: proto, D: 8, Churn: ChurnProfile{Leaves: 1, Joins: 1}}, nil)
		churning.byz = make([]bool, 64)
		if allocs := testing.AllocsPerRun(5, func() { Protocols[proto].Proc(churning, 1) }); allocs != 1 {
			t.Errorf("%s: a proc of a run whose churn detaches members costs %.0f allocations, want 1", proto, allocs)
		}
	}
}

// TestSpamAdversaryStream pins the spam adversary's stream label: the
// spammer at vertex v draws from SplitN("spam", v) of the cell's root
// stream, so its first beacon carries the same fabricated origin and
// path as a spammer built by hand on that stream.
func TestSpamAdversaryStream(t *testing.T) {
	const seed = 31
	params := counting.DefaultCongestParams(8)
	ctx := &scenarioCtx{rng: xrand.New(seed), congest: params}
	for _, v := range []int{0, 1, 7, 200} {
		beacon := func(p sim.Proc) (sim.NodeID, []sim.NodeID) {
			env := (&sim.Env{Vertex: v, ID: 1, Degree: 1, Neighbors: []int{0}}).WithRand(xrand.New(1))
			out := p.Step(env, 0, nil)
			if len(out) != 1 {
				t.Fatalf("vertex %d: %d messages at round 0, want one broadcast", v, len(out))
			}
			b := out[0].Payload.(*counting.Beacon)
			return b.Origin(), b.AppendPath(nil)
		}
		origin, path := beacon(Adversaries["spam"].Proc(ctx, v))
		wantOrigin, wantPath := beacon(byzantine.NewBeaconSpammer(params.Schedule, 6, false, xrand.New(seed).SplitN("spam", v)))
		if origin != wantOrigin || !reflect.DeepEqual(path, wantPath) || len(path) != 6 {
			t.Errorf("vertex %d: beacon from %#x via %x, want from %#x via %x", v, origin, path, wantOrigin, wantPath)
		}
	}
}
