package counting

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// runCongestBenign wires a CongestProc onto every vertex of an H(n,d)
// graph and runs until all nodes exit (or maxRounds).
func runCongestBenign(t *testing.T, n, d int, seed uint64) ([]Outcome, *sim.Engine, int) {
	t.Helper()
	rng := xrand.New(seed)
	g, err := graph.HND(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(seed+1))
	params := DefaultCongestParams(d)
	procs := make([]sim.Proc, n)
	for v := range procs {
		procs[v] = NewCongestProc(params)
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	rounds, err := eng.Run(maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	return Outcomes(procs), eng, rounds
}

func allHonest(n int) []bool {
	h := make([]bool, n)
	for i := range h {
		h[i] = true
	}
	return h
}

func TestCongestBenignAllDecide(t *testing.T) {
	const n, d = 256, 8
	outcomes, _, rounds := runCongestBenign(t, n, d, 1)
	honest := allHonest(n)
	if frac := DecidedFraction(outcomes, honest); frac != 1 {
		t.Fatalf("decided fraction = %g, want 1", frac)
	}
	// Corollary 1: the benign run terminates quickly (O(log n) phases
	// means few hundred rounds at this scale, far below the Byzantine
	// bound of O(B log^2 n)).
	if rounds > 2000 {
		t.Errorf("benign run took %d rounds", rounds)
	}
}

func TestCongestBenignEstimateScalesWithN(t *testing.T) {
	// The point of the protocol: bigger networks yield bigger estimates.
	mean := func(n int, seed uint64) float64 {
		outcomes, _, _ := runCongestBenign(t, n, 8, seed)
		vals := DecidedEstimates(outcomes, allHonest(n))
		sum := 0.0
		for _, v := range vals {
			sum += float64(v)
		}
		return sum / float64(len(vals))
	}
	small := mean(64, 2)
	large := mean(1024, 3)
	if large <= small {
		t.Errorf("estimate did not grow with n: mean(64)=%g mean(1024)=%g", small, large)
	}
}

func TestCongestBenignEstimateNearLogDN(t *testing.T) {
	const n, d = 512, 8
	outcomes, _, _ := runCongestBenign(t, n, d, 4)
	honest := allHonest(n)
	logd := LogD(n, d) // = 3
	// Most nodes should land within a constant factor of log_d n; at this
	// scale the algorithm decides within [logd, 3*logd] (the start phase
	// and beacon decay set the constants).
	frac := FractionWithinFactor(outcomes, honest, logd*0.5, logd*3+2)
	if frac < 0.9 {
		t.Errorf("only %g of nodes within factor bounds of log_d n = %g", frac, logd)
	}
}

func TestCongestBenignMostNodesAgreeWithinOne(t *testing.T) {
	const n, d = 256, 8
	outcomes, _, _ := runCongestBenign(t, n, d, 5)
	counts := map[int]int{}
	for _, o := range outcomes {
		if o.Decided {
			counts[o.Estimate]++
		}
	}
	best, bestCount := 0, 0
	for v, c := range counts {
		if c > bestCount {
			best, bestCount = v, c
		}
	}
	near := 0
	for v, c := range counts {
		if v >= best-1 && v <= best+1 {
			near += c
		}
	}
	if frac := float64(near) / float64(n); frac < 0.9 {
		t.Errorf("estimates too dispersed: mode %d covers only %g within ±1 (counts=%v)", best, frac, counts)
	}
}

func TestCongestBenignSmallMessages(t *testing.T) {
	const n, d = 256, 8
	_, eng, _ := runCongestBenign(t, n, d, 6)
	m := eng.Metrics()
	// A beacon path is at most i+2 hops with i = O(log n): message size
	// stays well under a kilobit at this scale.
	if m.MaxMsgBits > 64*(20+2)+80 {
		t.Errorf("max message size %d bits is not small", m.MaxMsgBits)
	}
	if m.Violations != 0 {
		t.Errorf("honest protocol produced %d addressing violations", m.Violations)
	}
}

func TestCongestDeterministicRuns(t *testing.T) {
	a, _, roundsA := runCongestBenign(t, 128, 8, 7)
	b, _, roundsB := runCongestBenign(t, 128, 8, 7)
	if roundsA != roundsB {
		t.Fatalf("round counts differ: %d vs %d", roundsA, roundsB)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("outcome %d differs: %+v vs %+v", v, a[v], b[v])
		}
	}
}

func TestCongestOutcomeBeforeRun(t *testing.T) {
	p := NewCongestProc(DefaultCongestParams(8))
	o := p.Outcome()
	if o.Decided || o.Exited {
		t.Errorf("fresh proc outcome = %+v", o)
	}
	if p.Halted() {
		t.Error("fresh proc halted")
	}
}

func TestCongestMaxPhaseForcesDecision(t *testing.T) {
	// With absurd parameters (c1 so large everyone beacons forever), the
	// MaxPhase safety must still terminate each node.
	const n, d = 64, 4
	rng := xrand.New(8)
	g, err := graph.HND(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(9))
	params := DefaultCongestParams(d)
	params.C1 = 1e12 // activation probability 1 in every phase
	params.MaxPhase = 4
	procs := make([]sim.Proc, n)
	for v := range procs {
		procs[v] = NewCongestProc(params)
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 2)
	if _, err := eng.Run(maxRounds); err != nil {
		t.Fatal(err)
	}
	outcomes := Outcomes(procs)
	for v, o := range outcomes {
		if !o.Decided {
			t.Fatalf("vertex %d never decided despite MaxPhase", v)
		}
		if o.Estimate > 5 {
			t.Errorf("vertex %d decided %d beyond MaxPhase+1", v, o.Estimate)
		}
	}
}

func TestCongestRingStillTerminates(t *testing.T) {
	// The algorithm's guarantees need an expander, but it must not hang on
	// a ring: ball sizes grow linearly so beacons die out early and nodes
	// decide small values.
	const n = 64
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(10))
	params := DefaultCongestParams(2)
	procs := make([]sim.Proc, n)
	for v := range procs {
		procs[v] = NewCongestProc(params)
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	if _, err := eng.Run(maxRounds); err != nil {
		t.Fatal(err)
	}
	for v, o := range Outcomes(procs) {
		if !o.Decided {
			t.Fatalf("ring vertex %d never decided", v)
		}
	}
}

// prefixToBlacklist returns all path entries except the last `suffix`
// ones (the trusted near-suffix of lines 20 and 31): the slice reference
// the chain walk is checked against.
func prefixToBlacklist(path []sim.NodeID, suffix int) []sim.NodeID {
	if len(path) <= suffix {
		return nil
	}
	return path[:len(path)-suffix]
}

// untrustedIDs collects the IDs the walk from untrusted visits, in path
// order.
func untrustedIDs(b *Beacon, suffix int) []sim.NodeID {
	var ids []sim.NodeID
	for p := b.untrusted(suffix); p.prev != nil; p = p.prev {
		ids = append(ids, p.id)
	}
	slices.Reverse(ids)
	return ids
}

func TestPrefixToBlacklist(t *testing.T) {
	path := []sim.NodeID{1, 2, 3, 4, 5}
	if got := prefixToBlacklist(path, 2); len(got) != 3 || got[2] != 3 {
		t.Errorf("prefixToBlacklist = %v", got)
	}
	if got := prefixToBlacklist(path, 5); got != nil {
		t.Errorf("full-suffix prefix = %v", got)
	}
	if got := prefixToBlacklist(path, 10); got != nil {
		t.Errorf("oversize-suffix prefix = %v", got)
	}
}

// TestBeaconChainMatchesSlice checks the chain against the slice path
// it replaced, whose values a chain with a stored length computed too:
// a chain built by NewBeacon from a prefix of 0-40 IDs and extended hop
// by hop by the honest forward reads back its path, reports its length,
// size and origin, and for every suffix 0-45 the walk from untrusted
// visits exactly prefixToBlacklist's entries, in order. The walk is
// also checked where Algorithm 2 takes it: the blacklist update adds
// exactly those IDs, and the filter rejects the beacon exactly when
// one of them is blacklisted.
func TestBeaconChainMatchesSlice(t *testing.T) {
	rng := xrand.New(11)
	randomID := func(path []sim.NodeID) sim.NodeID {
		switch rng.Intn(4) {
		case 0:
			return 0 // the idSet keeps ID 0 out of its table
		case 1:
			if len(path) > 0 {
				return path[rng.Intn(len(path))] // a repeat
			}
		}
		return sim.NodeID(rng.Uint64())
	}
	params := DefaultCongestParams(8)
	c := NewCongestProc(params)
	blacklisted := func(ids ...sim.NodeID) {
		c.blacklist.reset()
		for _, id := range ids {
			c.blacklist.add(id)
		}
	}
	check := func(b *Beacon, origin sim.NodeID, p []sim.NodeID) {
		t.Helper()
		if got := b.AppendPath(nil); !slices.Equal(got, p) {
			t.Fatalf("AppendPath = %v, want %v", got, p)
		}
		if got, want := b.AppendPath([]sim.NodeID{7}), append([]sim.NodeID{7}, p...); !slices.Equal(got, want) {
			t.Fatalf("AppendPath onto [7] = %v, want %v", got, want)
		}
		if b.Origin() != origin || b.pathLen() != len(p) || b.SizeBits() != 16+64+64*len(p) {
			t.Fatalf("path %v: Origin %d Len %d SizeBits %d", p, b.Origin(), b.pathLen(), b.SizeBits())
		}
		for suffix := 0; suffix <= 45; suffix++ {
			prefix := prefixToBlacklist(p, suffix)
			if got := untrustedIDs(b, suffix); !slices.Equal(got, prefix) {
				t.Fatalf("path %v suffix %d: walk visits %v, want %v", p, suffix, got, prefix)
			}
			blacklisted()
			c.blacklistUntrusted(b, suffix)
			distinct := slices.Compact(slices.Sorted(slices.Values(prefix)))
			nonZero := len(distinct)
			if len(distinct) > 0 && distinct[0] == 0 {
				nonZero--
			}
			if int(c.blacklist.count) != nonZero || c.blacklist.hasZero != slices.Contains(prefix, 0) {
				t.Fatalf("path %v suffix %d: update blacklisted %d IDs (zero %v), want %v",
					p, suffix, c.blacklist.count, c.blacklist.hasZero, distinct)
			}
			for _, id := range distinct {
				if !c.blacklist.has(id) {
					t.Fatalf("path %v suffix %d: update missed %d", p, suffix, id)
				}
			}
			for _, id := range distinct {
				blacklisted(id)
				if c.acceptable(b, suffix) {
					t.Fatalf("path %v suffix %d: accepted with %d blacklisted", p, suffix, id)
				}
			}
			// Every ID the walk does not visit, blacklisted at once.
			var others []sim.NodeID
			for _, id := range append([]sim.NodeID{origin}, p...) {
				if !slices.Contains(prefix, id) {
					others = append(others, id)
				}
			}
			blacklisted(others...)
			if !c.acceptable(b, suffix) {
				t.Fatalf("path %v suffix %d: rejected with only unvisited IDs %v blacklisted", p, suffix, others)
			}
		}
	}
	check(NewBeacon(5, []sim.NodeID{1, 2, 3, 4, 5}), 5, []sim.NodeID{1, 2, 3, 4, 5}) // TestPrefixToBlacklist's path
	for range 300 {
		var p []sim.NodeID
		for range rng.Intn(41) {
			p = append(p, randomID(p))
		}
		origin := randomID(p)
		b := NewBeacon(origin, p)
		check(b, origin, p)
		for range rng.Intn(13) {
			id := randomID(p)
			b = b.extend(id)
			p = append(p, id)
			check(b, origin, p)
		}
	}
}

func TestBeaconSizeBits(t *testing.T) {
	b := NewBeacon(1, []sim.NodeID{2, 3})
	if b.SizeBits() != 16+64+128 {
		t.Errorf("SizeBits = %d", b.SizeBits())
	}
	var c Continue
	if c.SizeBits() != 16 {
		t.Errorf("continue SizeBits = %d", c.SizeBits())
	}
}

// stepMallocs steps p through one round and returns the number of heap
// objects and bytes the round allocated.
func stepMallocs(p *CongestProc, env *sim.Env, round int, in []sim.Incoming) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Step(env, round, in)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestCongestStepAllocs gates Algorithm 2's step: forwarding a beacon
// costs one object of at most 16 bytes (the chain node; the path is
// shared and the pointer payload is stored without boxing), a beacon
// received in the last receipt round by a node that already holds
// shortestPath is neither sent nor kept and costs nothing, and decision
// and continue-window rounds allocate nothing once the blacklist has
// grown.
func TestCongestStepAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	params := DefaultCongestParams(8)
	params.C1 = 0 // never originate: every beacon comes from the script
	sched := params.Schedule
	const i = 2 // phase 2: offsets 1..3 forward, 4 decides, 5..8 continue
	if sched.StartPhase != i || BlacklistSuffix(i, params.Epsilon) != 1 || sched.Iterations(i) < 3 {
		t.Fatalf("the script assumes phase %d starts the run, trusts a 1-ID suffix and has 3 iterations", i)
	}
	iterLen := IterationRounds(i)

	const deg = 8
	nbrs := make([]int, deg)
	for k := range nbrs {
		nbrs[k] = k + 1
	}
	env := (&sim.Env{Vertex: 0, ID: 1, Degree: deg, Neighbors: nbrs}).WithRand(xrand.New(5))
	env.Broadcast(Continue{}) // size the scratch buffer for one broadcast

	// Every beacon-window round delivers one beacon carrying fresh IDs,
	// through the last receipt round i+2. The first iteration's 20-ID
	// paths grow the phase blacklist past what the later iterations'
	// 4-ID prefixes need; the continue window delivers a continue to
	// forward.
	ids := xrand.New(6)
	fresh := func(k int) []sim.NodeID {
		p := make([]sim.NodeID, k)
		for j := range p {
			p[j] = sim.NodeID(ids.Uint64())
		}
		return p
	}
	inbox := make(map[int][]sim.Incoming)
	for j := range 3 {
		pathLen := 4
		if j == 0 {
			pathLen = 20
		}
		for off := 1; off <= i+2; off++ {
			b := NewBeacon(sim.NodeID(ids.Uint64()), fresh(pathLen))
			inbox[j*iterLen+off] = []sim.Incoming{{From: 1, FromID: sim.NodeID(ids.Uint64()), Payload: b}}
		}
		for off := i + 3; off < iterLen; off++ {
			inbox[j*iterLen+off] = []sim.Incoming{{From: 2, FromID: 99, Payload: Continue{}}}
		}
	}

	p := NewCongestProc(params)
	for j := range 3 {
		for off := 0; off < iterLen; off++ {
			r := j*iterLen + off
			got, bytes := stepMallocs(p, env, r, inbox[r])
			var want uint64
			switch {
			case off >= 1 && off <= i+1:
				want = 1
				if bytes > 16 {
					t.Errorf("iteration %d offset %d: a forward allocated %d bytes, want <= 16", j+1, off, bytes)
				}
			case off == i+2 && j == 0:
				continue // the blacklist grows to its high-water mark
			}
			if got != want {
				t.Errorf("iteration %d offset %d: %d allocations, want %d", j+1, off, got, want)
			}
		}
		if p.decided || int(p.blacklist.count) != 20+4*j {
			t.Fatalf("iteration %d: decided=%v, blacklist holds %d IDs", j+1, p.decided, p.blacklist.count)
		}
	}
}

// TestCongestProcFootprint gates the per-node sizes: a proc points at
// its run's shared parameters, caches phases without a copy of the
// schedule and holds phases and set sizes in 32 bits, so it fits in 96
// bytes; a beacon chain node is two words, and an Outcome three.
// NewCongestProc is one allocation, and NewCongestProcs one whatever n.
func TestCongestProcFootprint(t *testing.T) {
	if size := unsafe.Sizeof(CongestProc{}); size > 96 {
		t.Errorf("CongestProc is %d bytes, want <= 96", size)
	}
	if size := unsafe.Sizeof(Beacon{}); size != 16 {
		t.Errorf("Beacon is %d bytes, want 16", size)
	}
	if size := unsafe.Sizeof(Outcome{}); size != 24 {
		t.Errorf("Outcome is %d bytes, want 24", size)
	}
	params := DefaultCongestParams(8)
	if allocs := testing.AllocsPerRun(20, func() { NewCongestProc(params) }); allocs != 1 {
		t.Errorf("NewCongestProc costs %.0f allocations, want 1", allocs)
	}
	for _, n := range []int{16, 4096} {
		if allocs := testing.AllocsPerRun(20, func() { NewCongestProcs(&params, n) }); allocs != 1 {
			t.Errorf("NewCongestProcs(n=%d) costs %.0f allocations, want 1", n, allocs)
		}
	}
}

// TestCongestSuffixFollowsPhase: the trusted suffix a proc fixes when
// a phase begins is that phase's BlacklistSuffix at every round.
func TestCongestSuffixFollowsPhase(t *testing.T) {
	params := DefaultCongestParams(8)
	params.C1 = 0
	params.Epsilon = 0.5 // the suffix grows every second phase
	params.Schedule.IterationCap = 1
	env := (&sim.Env{Vertex: 0, ID: 1, Degree: 1, Neighbors: []int{1}}).WithRand(xrand.New(5))
	p := NewCongestProc(params)
	for r := range params.Schedule.RoundsThroughPhase(12) {
		p.Step(env, r, nil)
		i := params.Schedule.Locate(r).Phase
		if want := BlacklistSuffix(i, params.Epsilon); int(p.suffix) != want {
			t.Fatalf("round %d (phase %d): suffix %d, want %d", r, i, p.suffix, want)
		}
	}
}

// TestCongestProcsMatchSingles: procs from one NewCongestProcs slab
// sharing one params run exactly like separately built ones.
func TestCongestProcsMatchSingles(t *testing.T) {
	const n, d = 256, 8
	g, err := graph.HND(n, d, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultCongestParams(d)
	run := func(proc func(v int) sim.Proc) ([]Outcome, sim.Metrics) {
		eng := sim.New(g, sim.WithSeed(22))
		procs := make([]sim.Proc, n)
		for v := range procs {
			procs[v] = proc(v)
		}
		if err := eng.Attach(procs); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)); err != nil {
			t.Fatal(err)
		}
		return Outcomes(procs), eng.Metrics()
	}
	singles, singleMetrics := run(func(int) sim.Proc { return NewCongestProc(params) })
	slab := NewCongestProcs(&params, n)
	shared, sharedMetrics := run(func(v int) sim.Proc { return &slab[v] })
	if !reflect.DeepEqual(singles, shared) || !reflect.DeepEqual(singleMetrics, sharedMetrics) {
		t.Error("slab procs diverge from separately built ones")
	}
	if !slices.ContainsFunc(shared, func(o Outcome) bool { return o.Decided }) {
		t.Error("degenerate run: nobody decided")
	}
}

func TestLogHelpers(t *testing.T) {
	if Log2(8) != 3 {
		t.Errorf("Log2(8) = %g", Log2(8))
	}
	if Log2(0) != 0 {
		t.Errorf("Log2(0) = %g", Log2(0))
	}
	if math.Abs(LogD(512, 8)-3) > 1e-12 {
		t.Errorf("LogD(512,8) = %g", LogD(512, 8))
	}
	if LogD(0, 8) != 0 || LogD(8, 1) != 0 {
		t.Error("degenerate LogD")
	}
}

func TestOutcomesHelpers(t *testing.T) {
	outcomes := []Outcome{
		{Decided: true, Estimate: 4},
		{Decided: true, Estimate: 8},
		{Decided: false},
		{Decided: true, Estimate: 100}, // Byzantine vertex, excluded below
	}
	honest := []bool{true, true, true, false}
	if got := DecidedFraction(outcomes, honest); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("DecidedFraction = %g", got)
	}
	vals := DecidedEstimates(outcomes, honest)
	if len(vals) != 2 || vals[0] != 4 || vals[1] != 8 || cap(vals) != 2 {
		t.Errorf("DecidedEstimates = %v (cap %d)", vals, cap(vals))
	}
	if allocs := testing.AllocsPerRun(10, func() { DecidedEstimates(outcomes, honest) }); allocs != 1 {
		t.Errorf("DecidedEstimates costs %.0f allocations, want 1", allocs)
	}
	if vals := DecidedEstimates(outcomes, []bool{false, false, true, false}); vals != nil {
		t.Errorf("DecidedEstimates with none decided = %v, want nil", vals)
	}
	if got := FractionWithinFactor(outcomes, honest, 3, 5); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("FractionWithinFactor = %g", got)
	}
	if DecidedFraction(outcomes, []bool{false, false, false, false}) != 0 {
		t.Error("no honest nodes should give 0")
	}
}
