package expt

import (
	"context"
	"reflect"
	"strings"
	"testing"

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
	good := Scenario{Proto: "congest", Adversary: "spam", Byz: 4,
		Churn: ChurnProfile{Leaves: 1, Joins: 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
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
// is the old runner decomposed, not a reimplementation — for the E3
// cell shape it must produce the exact runProtocol outcome.
func TestScenarioStaticMatchesHandWired(t *testing.T) {
	rngA := xrand.New(1234)
	out, err := RunScenario(Scenario{
		Proto: "congest", Adversary: "spam", Placement: "random",
		N: 64, D: 8, Byz: 4, MaxPhase: 6, StopFrac: 1,
	}, rngA, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds == 0 || out.Metrics.Messages == 0 {
		t.Fatal("degenerate run")
	}
	// Same seed, same cell: byte-identical outcome set.
	out2, err := RunScenario(Scenario{
		Proto: "congest", Adversary: "spam", Placement: "random",
		N: 64, D: 8, Byz: 4, MaxPhase: 6, StopFrac: 1,
	}, xrand.New(1234), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Outcomes, out2.Outcomes) || !reflect.DeepEqual(out.Metrics, out2.Metrics) {
		t.Error("same-seed scenario runs diverge")
	}
}
