package counting

import (
	"slices"
	"testing"
	"testing/quick"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// TestViewMergeOrderIndependent: merging the same consistent seal set in
// any order yields the same sealed view (the flooding order through the
// network must not matter).
func TestViewMergeOrderIndependent(t *testing.T) {
	rng := xrand.New(60)
	g, err := graph.HND(40, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Build truthful seals with IDs = vertex+1.
	seals := make([]SealRecord, g.N())
	for v := 0; v < g.N(); v++ {
		uniq := map[sim.NodeID]bool{}
		var nbrs []sim.NodeID
		for _, w := range g.Neighbors(v) {
			id := sim.NodeID(w + 1)
			if !uniq[id] {
				uniq[id] = true
				nbrs = append(nbrs, id)
			}
		}
		seals[v] = SealRecord{Node: sim.NodeID(v + 1), Neighbors: nbrs}
	}
	f := func(permSeed uint64) bool {
		view := NewView(8)
		order := xrand.New(permSeed).Perm(len(seals))
		for _, i := range order {
			if err := view.Merge(seals[i]); err != nil {
				return false
			}
		}
		if view.sealedCount != g.N() {
			return false
		}
		// Layer structure from vertex 1 must match the true BFS.
		layers := view.BallLayers(1)
		dist := g.BFS(0)
		for d, layer := range layers {
			for _, x := range layer {
				if dist[int(x)-1] != d {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestViewMergeIdempotent: merging any prefix twice changes nothing.
func TestViewMergeIdempotent(t *testing.T) {
	recs := []SealRecord{
		{Node: 1, Neighbors: ids(2, 3)},
		{Node: 2, Neighbors: ids(1, 3)},
		{Node: 3, Neighbors: ids(1, 2, 4)},
	}
	v1 := NewView(4)
	v2 := NewView(4)
	for _, r := range recs {
		if err := v1.Merge(r); err != nil {
			t.Fatal(err)
		}
		if err := v2.Merge(r); err != nil {
			t.Fatal(err)
		}
		if err := v2.Merge(r); err != nil {
			t.Fatalf("re-merge failed: %v", err)
		}
	}
	if v1.sealedCount != v2.sealedCount || len(v1.nodes) != len(v2.nodes) {
		t.Error("idempotence violated")
	}
}

// TestCongestEstimatesNeverBelowStartPhase: no node can decide below the
// schedule's start phase, whatever the topology.
func TestCongestEstimatesNeverBelowStartPhase(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw)
		rng := xrand.New(seed)
		g, err := graph.HND(32+int(seedRaw)%32, 4, rng)
		if err != nil {
			return false
		}
		params := DefaultCongestParams(4)
		params.MaxPhase = 8
		eng := sim.New(g, sim.WithSeed(seed+1))
		procs := make([]sim.Proc, g.N())
		for v := range procs {
			procs[v] = NewCongestProc(params)
		}
		if err := eng.Attach(procs); err != nil {
			return false
		}
		if _, err := eng.Run(params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)); err != nil {
			return false
		}
		for _, o := range Outcomes(procs) {
			if o.Decided && o.Estimate < params.Schedule.StartPhase {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestCongestUpdateOnReentry: with the option set, a node reactivated by
// continue messages may raise its estimate to the phase at which it
// finally exits — never lower it.
func TestCongestUpdateOnReentry(t *testing.T) {
	rng := xrand.New(61)
	g, err := graph.HND(128, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(update bool) []Outcome {
		params := DefaultCongestParams(8)
		params.UpdateOnReentry = update
		eng := sim.New(g, sim.WithSeed(62))
		procs := make([]sim.Proc, g.N())
		for v := range procs {
			procs[v] = NewCongestProc(params)
		}
		if err := eng.Attach(procs); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)); err != nil {
			t.Fatal(err)
		}
		return Outcomes(procs)
	}
	plain := run(false)
	updated := run(true)
	for v := range plain {
		if updated[v].Estimate < plain[v].Estimate {
			t.Fatalf("vertex %d: reentry lowered the estimate (%d -> %d)",
				v, plain[v].Estimate, updated[v].Estimate)
		}
	}
}

// TestLocalEstimatePositive: Algorithm 1 never decides a non-positive
// estimate on a connected graph of more than one node.
func TestLocalEstimatePositive(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw)
		rng := xrand.New(seed)
		g, err := graph.HND(16+int(seedRaw)%48, 4, rng)
		if err != nil {
			return false
		}
		params := DefaultLocalParams(4)
		eng := sim.New(g, sim.WithSeed(seed+1))
		procs := make([]sim.Proc, g.N())
		for v := range procs {
			procs[v] = NewLocalProc(params)
		}
		if err := eng.Attach(procs); err != nil {
			return false
		}
		if _, err := eng.Run(params.MaxRounds + 8); err != nil {
			return false
		}
		for _, o := range Outcomes(procs) {
			if !o.Decided || o.Estimate < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestBeaconShortcutProperties checks the identities Algorithm 2's step
// relies on to skip building forwards it neither sends nor keeps, and to
// store the origin only at a chain's root. Over seeded random chains
// (NewBeacon plus random extends) and random blacklists, for every
// trusted suffix s >= 1:
//   - acceptable(b.extend(id), s) == acceptable(b, s-1): the suffix
//     always covers the appended sender, so the forward's untrusted
//     prefix is b's at s-1;
//   - every extension reports the root's origin;
//   - AppendPath returns the path the chain was built from.
func TestBeaconShortcutProperties(t *testing.T) {
	rng := xrand.New(61)
	randomID := func(pool []sim.NodeID) sim.NodeID {
		switch {
		case rng.Intn(8) == 0:
			return 0 // the idSet keeps ID 0 out of its table
		case len(pool) > 0 && rng.Intn(2) == 0:
			return pool[rng.Intn(len(pool))]
		default:
			return sim.NodeID(rng.Uint64())
		}
	}
	verdicts := map[bool]int{}
	for trial := range 400 {
		var path []sim.NodeID
		for range rng.Intn(12) {
			path = append(path, randomID(path))
		}
		origin := randomID(nil)
		b := NewBeacon(origin, path)
		for range rng.Intn(12) {
			id := randomID(path)
			b = b.extend(id)
			path = append(path, id)
		}
		c := NewCongestProc(DefaultCongestParams(8))
		for range rng.Intn(2 * (len(path) + 1)) {
			c.blacklist.add(randomID(path))
		}
		if got := b.Origin(); got != origin {
			t.Fatalf("trial %d: chain of %d IDs reports origin %d, root holds %d", trial, len(path), got, origin)
		}
		if got := b.AppendPath(nil); !slices.Equal(got, path) {
			t.Fatalf("trial %d: AppendPath = %v, built from %v", trial, got, path)
		}
		for range 3 {
			id := randomID(path)
			fwd := b.extend(id)
			if got := fwd.Origin(); got != origin {
				t.Fatalf("trial %d: extension reports origin %d, root holds %d", trial, got, origin)
			}
			if got, want := fwd.AppendPath(nil), append(slices.Clip(path), id); !slices.Equal(got, want) {
				t.Fatalf("trial %d: extension's AppendPath = %v, want %v", trial, got, want)
			}
			for s := 1; s <= len(path)+3; s++ {
				got, want := c.acceptable(fwd, s), c.acceptable(b, s-1)
				if got != want {
					t.Fatalf("trial %d suffix %d: forward acceptable %v, received beacon at suffix-1 %v (path %v + %d, blacklist of %d)",
						trial, s, got, want, path, id, c.blacklist.count)
				}
				verdicts[got]++
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("the instances never exercised both verdicts: %v", verdicts)
	}
	t.Logf("verdicts: %v", verdicts)
}
