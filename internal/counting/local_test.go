package counting

import (
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

func runLocalBenign(t *testing.T, g *graph.Graph, d int, seed uint64) ([]Outcome, *sim.Engine, int) {
	t.Helper()
	eng := sim.New(g, sim.WithSeed(seed))
	params := DefaultLocalParams(d)
	procs := make([]sim.Proc, g.N())
	for v := range procs {
		procs[v] = NewLocalProc(params)
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	rounds, err := eng.Run(params.MaxRounds + 8)
	if err != nil {
		t.Fatal(err)
	}
	return Outcomes(procs), eng, rounds
}

func TestLocalBenignAllDecide(t *testing.T) {
	rng := xrand.New(1)
	g, err := graph.HND(256, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, _, rounds := runLocalBenign(t, g, 8, 2)
	honest := allHonest(g.N())
	if frac := DecidedFraction(outcomes, honest); frac != 1 {
		t.Fatalf("decided fraction = %g", frac)
	}
	diam, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	for v, o := range outcomes {
		if o.Estimate < 1 || o.Estimate > diam+2 {
			t.Errorf("vertex %d decided %d outside [1, diam+2=%d]", v, o.Estimate, diam+2)
		}
	}
	if rounds > diam+4 {
		t.Errorf("run took %d rounds, diameter is %d", rounds, diam)
	}
}

func TestLocalBenignEstimateScalesWithN(t *testing.T) {
	meanEst := func(n int, seed uint64) float64 {
		rng := xrand.New(seed)
		g, err := graph.HND(n, 6, rng)
		if err != nil {
			t.Fatal(err)
		}
		outcomes, _, _ := runLocalBenign(t, g, 6, seed+1)
		sum, cnt := 0.0, 0
		for _, o := range outcomes {
			if o.Decided {
				sum += float64(o.Estimate)
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	small := meanEst(64, 3)
	large := meanEst(512, 4)
	if large <= small {
		t.Errorf("estimates did not grow with n: %g vs %g", small, large)
	}
}

func TestLocalBenignDeterministic(t *testing.T) {
	rng := xrand.New(5)
	g, err := graph.HND(128, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := runLocalBenign(t, g, 6, 6)
	b, _, _ := runLocalBenign(t, g, 6, 6)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("outcome %d differs", v)
		}
	}
}

// muteByz is a Byzantine process that never sends anything.
type muteByz struct{}

func (muteByz) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing { return nil }
func (muteByz) Halted() bool                                                   { return false }

func TestLocalMuteByzantinePropagatesDistanceDecisions(t *testing.T) {
	// A mute Byzantine node forces neighbors to decide at round 1, their
	// neighbors at round 2, etc. Estimates track distance-to-Byzantine,
	// capped by the benign decision time — exactly the Theorem 1 shape.
	rng := xrand.New(7)
	g, err := graph.HND(256, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(8))
	params := DefaultLocalParams(8)
	procs := make([]sim.Proc, g.N())
	const byzVertex = 0
	for v := range procs {
		if v == byzVertex {
			procs[v] = muteByz{}
		} else {
			procs[v] = NewLocalProc(params)
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	eng.SetStopCondition(func(round int) bool {
		for v, p := range procs {
			if v == byzVertex {
				continue
			}
			if !p.(*LocalProc).decided {
				return false
			}
		}
		return true
	})
	if _, err := eng.Run(params.MaxRounds + 8); err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(byzVertex)
	outcomes := Outcomes(procs)
	for v, o := range outcomes {
		if v == byzVertex {
			continue
		}
		if !o.Decided {
			t.Fatalf("vertex %d undecided", v)
		}
		if o.Estimate > dist[v]+1 {
			t.Errorf("vertex %d at distance %d decided %d (> dist+1)", v, dist[v], o.Estimate)
		}
	}
}

// degreeLiar seals itself with more neighbors than the degree bound.
type degreeLiar struct{ sent bool }

func (dl *degreeLiar) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if dl.sent {
		// Keep broadcasting empty deltas so the mute check never fires;
		// only the degree lie should trigger detection.
		return env.Broadcast(LocalDelta{})
	}
	dl.sent = true
	fake := make([]sim.NodeID, len(env.Neighbors), len(env.Neighbors)+8)
	for k := range fake {
		fake[k] = env.NeighborID(k)
	}
	for i := 0; i < 8; i++ {
		fake = append(fake, sim.NodeID(0xdead0000+uint64(i)))
	}
	return env.Broadcast(LocalDelta{Seals: []SealRecord{{Node: env.ID, Neighbors: fake}}})
}
func (dl *degreeLiar) Halted() bool { return false }

func TestLocalDegreeLiarDetected(t *testing.T) {
	rng := xrand.New(9)
	g, err := graph.HND(128, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(10))
	params := DefaultLocalParams(6)
	procs := make([]sim.Proc, g.N())
	const byzVertex = 3
	for v := range procs {
		if v == byzVertex {
			procs[v] = &degreeLiar{}
		} else {
			procs[v] = NewLocalProc(params)
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(params.MaxRounds + 8); err != nil {
		t.Fatal(err)
	}
	// The liar's direct neighbors see a degree-7 claim in a degree-6
	// network at round 1 and decide immediately.
	dist := g.BFS(byzVertex)
	for v, o := range Outcomes(procs) {
		if v == byzVertex || dist[v] != 1 {
			continue
		}
		if !o.Decided || o.Estimate != 1 {
			t.Errorf("neighbor %d of the liar decided %+v, want estimate 1", v, o)
		}
	}
}

func TestLocalRingDecidesEarly(t *testing.T) {
	// Rings have no expansion: the growth check fails within a few
	// rounds, long before the diameter. (This is the Theorem 3 intuition:
	// the algorithm cannot certify size without expansion — it halts with
	// whatever small radius it could verify.)
	g, err := graph.Ring(128)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultLocalParams(2)
	params.Alpha = 0.2
	eng := sim.New(g, sim.WithSeed(11))
	procs := make([]sim.Proc, g.N())
	for v := range procs {
		procs[v] = NewLocalProc(params)
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(params.MaxRounds + 8); err != nil {
		t.Fatal(err)
	}
	for v, o := range Outcomes(procs) {
		if !o.Decided {
			t.Fatalf("ring vertex %d undecided", v)
		}
		if o.Estimate > 20 {
			t.Errorf("ring vertex %d decided %d; expected early decision", v, o.Estimate)
		}
	}
}

func TestLocalOutcomeFresh(t *testing.T) {
	p := NewLocalProc(DefaultLocalParams(8))
	if p.Halted() {
		t.Error("fresh proc halted")
	}
	if o := p.Outcome(); o.Decided {
		t.Error("fresh proc decided")
	}
	if p.view == nil {
		t.Error("nil view")
	}
}
