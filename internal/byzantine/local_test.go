package byzantine

import (
	"testing"

	"byzcount/internal/counting"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

func runLocal(t *testing.T, g *graph.Graph, byz []bool, params counting.LocalParams,
	mkByz func(v int) sim.Proc, seed uint64) []counting.Outcome {
	t.Helper()
	eng := sim.New(g, sim.WithSeed(seed))
	procs := make([]sim.Proc, g.N())
	for v := range procs {
		if byz[v] {
			procs[v] = mkByz(v)
		} else {
			procs[v] = counting.NewLocalProc(params)
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	eng.SetStopCondition(func(round int) bool {
		for v, p := range procs {
			if byz[v] {
				continue
			}
			if e, ok := p.(counting.Estimator); ok && !e.Outcome().Decided {
				return false
			}
		}
		return true
	})
	if _, err := eng.Run(params.MaxRounds + 8); err != nil {
		t.Fatal(err)
	}
	return counting.Outcomes(procs)
}

func TestFakeWorldConstruction(t *testing.T) {
	rng := xrand.New(1)
	w, err := NewFakeWorld(64, 4, 8, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.adj) != 64 {
		t.Fatalf("fake world size %d", len(w.adj))
	}
	if len(w.roots) != 2 {
		t.Fatalf("roots = %d", len(w.roots))
	}
	// Attach two Byzantine IDs; each gets a root, idempotently.
	r1 := w.AttachK(sim.NodeID(100), 1)[0]
	r2 := w.AttachK(sim.NodeID(200), 1)[0]
	if r1 == r2 {
		t.Error("round-robin should use both roots")
	}
	if w.AttachK(sim.NodeID(100), 1)[0] != r1 {
		t.Error("AttachK not idempotent")
	}
	// The root's seal must include the attached Byzantine ID.
	seal := w.SealOf(r1)
	found := false
	for _, x := range seal.Neighbors {
		if x == sim.NodeID(100) {
			found = true
		}
	}
	if !found {
		t.Error("root seal missing back-reference to Byzantine node")
	}
	// Layers start at the root and cover the world.
	layers := w.LayersMulti([]sim.NodeID{r1})
	total := 0
	for _, l := range layers {
		total += len(l)
	}
	if total != 64 {
		t.Errorf("layers cover %d of 64", total)
	}
	if len(layers[0]) != 1 || layers[0][0] != r1 {
		t.Error("layer 0 should be the root")
	}
}

func TestFakeWorldSealsAreConsistent(t *testing.T) {
	// Merging every fake seal into a View must produce no inconsistency:
	// the attack is locally undetectable by construction.
	rng := xrand.New(2)
	w, err := NewFakeWorld(128, 6, 10, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	w.AttachK(sim.NodeID(42), 1)
	view := counting.NewView(10)
	for x := range w.adj {
		if err := view.Merge(w.SealOf(x)); err != nil {
			t.Fatalf("fake seal for %d inconsistent: %v", x, err)
		}
	}
}

func meanHonestEstimate(outs []counting.Outcome, byz []bool) float64 {
	sum, cnt := 0.0, 0
	for v, o := range outs {
		if !byz[v] && o.Decided {
			sum += float64(o.Estimate)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

func TestLocalFakeNetworkNarrowCutBounded(t *testing.T) {
	// The Lemma 5 phenomenon: a consistent fabricated expander attached
	// through a narrow cut (one edge per Byzantine node) CANNOT inflate
	// the estimates, because the layer growth through the cut pinches to
	// the cut width, far below alpha * |real ball|, and the expansion
	// check fires at the real graph's saturation point.
	const n, d, b, fakeN = 256, 8, 2, 1024
	g := testGraph(t, n, d, 30)
	rng := xrand.New(31)
	byz, err := RandomPlacement(g, b, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	diam, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	world, err := NewFakeWorld(fakeN, d, d+2, b, rng.Split("world"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultLocalParams(d + 2)
	outcomes := runLocal(t, g, byz, params, func(v int) sim.Proc {
		return NewFakeNetworkLocal(world, 1)
	}, 32)
	honest := HonestMask(byz)
	if frac := counting.DecidedFraction(outcomes, honest); frac < 0.99 {
		t.Fatalf("decided fraction %g", frac)
	}
	boundedFrac := counting.FractionWithinFactor(outcomes, honest, 1, float64(diam+3))
	if boundedFrac < 0.9 {
		t.Errorf("narrow-cut attack: only %g of honest nodes bounded by diam+3=%d", boundedFrac, diam+3)
	}
}

func TestLocalFakeNetworkWideCutSweepIsTheDefense(t *testing.T) {
	// A wide attachment cut (k extra edges per Byzantine node) defeats
	// the pinch that the ball-growth check relies on: layer growth
	// through the cut stays above alpha * |ball|. What still catches the
	// attack is the spectral sweep, because vertex expansion counts
	// VERTICES: the out-neighborhood of the honest set is exactly the B
	// Byzantine vertices no matter how many fake edges they claim —
	// Lemma 5's R-set argument. The ablation contrast (sweep off →
	// estimates inflate by about log(fakeN/cut)) measures exactly that.
	const n, d, fakeN = 128, 4, 8192
	const b, k = 8, 8 // edge cut width 64 > alpha*n = 25.6; vertex cut = 8
	g := testGraph(t, n, d, 33)
	rng := xrand.New(34)
	delta := d + k // degree bound with headroom for the attack edges

	byz, err := RandomPlacement(g, b, rng.Split("p1"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(sweep bool, worldLabel string, seed uint64) []counting.Outcome {
		world, err := NewFakeWorld(fakeN, d, delta, b*k, rng.Split(worldLabel))
		if err != nil {
			t.Fatal(err)
		}
		params := counting.DefaultLocalParams(delta)
		params.EnableSweep = sweep
		return runLocal(t, g, byz, params, func(v int) sim.Proc {
			return NewFakeNetworkLocal(world, k)
		}, seed)
	}

	withSweep := run(true, "w1", 35)
	withoutSweep := run(false, "w2", 36)

	mSweep := meanHonestEstimate(withSweep, byz)
	mNoSweep := meanHonestEstimate(withoutSweep, byz)
	if mNoSweep <= mSweep+1 {
		t.Errorf("sweep ablation contrast too weak: with=%g without=%g", mSweep, mNoSweep)
	}
}

func TestLocalSplitBrainDetected(t *testing.T) {
	const n, d = 128, 6
	g := testGraph(t, n, d, 34)
	rng := xrand.New(35)
	byz, err := RandomPlacement(g, 1, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultLocalParams(d + 2)
	outcomes := runLocal(t, g, byz, params, func(v int) sim.Proc {
		return NewSplitBrainLocal(rng.SplitN("sb", v))
	}, 36)
	honest := HonestMask(byz)
	if frac := counting.DecidedFraction(outcomes, honest); frac < 0.99 {
		t.Fatalf("decided fraction %g under split-brain", frac)
	}
	// Equivocation is detected when the two versions meet: decisions land
	// at most a couple of rounds past each node's distance to the liar.
	var byzV int
	for v, b := range byz {
		if b {
			byzV = v
		}
	}
	dist := g.BFS(byzV)
	for v, o := range outcomes {
		if byz[v] {
			continue
		}
		if o.Estimate > dist[v]+3 {
			t.Errorf("vertex %d at distance %d decided %d", v, dist[v], o.Estimate)
		}
	}
}

func TestLocalDegreeLiarDetectedImmediately(t *testing.T) {
	const n, d = 128, 6
	g := testGraph(t, n, d, 37)
	rng := xrand.New(38)
	byz, err := RandomPlacement(g, 1, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultLocalParams(d) // Delta = d: any extra edge is a lie
	outcomes := runLocal(t, g, byz, params, func(v int) sim.Proc {
		return NewDegreeLiarLocal(3, rng.SplitN("liar", v))
	}, 39)
	var byzV int
	for v, b := range byz {
		if b {
			byzV = v
		}
	}
	dist := g.BFS(byzV)
	for v, o := range outcomes {
		if byz[v] || dist[v] != 1 {
			continue
		}
		if !o.Decided || o.Estimate != 1 {
			t.Errorf("liar's neighbor %d decided %+v", v, o)
		}
	}
}
