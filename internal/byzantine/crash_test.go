package byzantine

import (
	"testing"

	"byzcount/internal/counting"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

type echoProc struct{ steps int }

func (e *echoProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	e.steps++
	return env.Broadcast(counting.Continue{})
}
func (e *echoProc) Halted() bool { return false }

func TestCrashStopsInner(t *testing.T) {
	inner := &echoProc{}
	c := NewCrash(inner, 3)
	env := (&sim.Env{Neighbors: []int{1}}).WithRand(xrand.New(1))
	for r := 0; r < 10; r++ {
		out := c.Step(env, r, nil)
		if r < 3 && len(out) == 0 {
			t.Fatalf("round %d: crashed too early", r)
		}
		if r >= 3 && len(out) != 0 {
			t.Fatalf("round %d: output after crash", r)
		}
	}
	if inner.steps != 3 {
		t.Errorf("inner stepped %d times, want 3", inner.steps)
	}
	if !c.crashed {
		t.Error("crash not recorded")
	}
	if c.Halted() {
		t.Error("a crashed node must not report Halted (it is silent, not absent)")
	}
}

func TestCongestSurvivesCrashFaults(t *testing.T) {
	// 10% of nodes fail-stop at random rounds during the run: the
	// remaining correct nodes must still decide bounded estimates (crash
	// faults are weaker than Byzantine faults).
	const n, d = 128, 8
	g := testGraph(t, n, d, 50)
	rng := xrand.New(51)
	crashing, err := RandomPlacement(g, n/10, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 10
	outcomes, _ := runCongest(t, g, crashing, params, func(v int) sim.Proc {
		return NewCrash(counting.NewCongestProc(params), 20+rng.SplitN("when", v).Intn(200))
	}, 52)
	correct := HonestMask(crashing)
	if frac := counting.DecidedFraction(outcomes, correct); frac < 0.99 {
		t.Fatalf("decided fraction %g under crash faults", frac)
	}
	sane := counting.FractionWithinFactor(outcomes, correct, 2, 8)
	if sane < 0.9 {
		t.Errorf("crash faults corrupted estimates: sane fraction %g", sane)
	}
}

func TestLocalCrashActsLikeMute(t *testing.T) {
	// In the LOCAL algorithm a crashed node is indistinguishable from a
	// mute Byzantine node: decisions cascade at distance rate, bounded by
	// the benign decision time — the Theorem 1 shape again.
	const n, d = 128, 8
	g := testGraph(t, n, d, 53)
	rng := xrand.New(54)
	crashing, err := RandomPlacement(g, 1, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultLocalParams(d)
	outcomes := runLocal(t, g, crashing, params, func(v int) sim.Proc {
		return NewCrash(counting.NewLocalProc(params), 2)
	}, 55)
	correct := HonestMask(crashing)
	if frac := counting.DecidedFraction(outcomes, correct); frac < 0.99 {
		t.Fatalf("decided fraction %g", frac)
	}
	var crashV int
	for v, b := range crashing {
		if b {
			crashV = v
		}
	}
	dist := g.BFS(crashV)
	for v, o := range outcomes {
		if crashing[v] || !o.Decided {
			continue
		}
		// Crash at round 2: node at distance k sees the silence at round
		// ~2+k, and the benign saturation check ends everything by ~diam+2.
		if o.Estimate > dist[v]+4 {
			t.Errorf("vertex %d at distance %d decided %d", v, dist[v], o.Estimate)
		}
	}
}
