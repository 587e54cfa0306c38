package sim

import (
	"slices"
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/xrand"
)

// testPayload is a minimal payload carrying an int value.
type testPayload struct {
	value int
	bits  int
}

func (p testPayload) SizeBits() int { return p.bits }

// floodProc floods the maximum value it has seen; it halts after quiet
// rounds with no new information.
type floodProc struct {
	best     int
	lastSent int
	halted   bool
	quiet    int
}

func (f *floodProc) Step(env *Env, round int, in []Incoming) []Outgoing {
	changed := false
	for _, m := range in {
		if p, ok := m.Payload.(testPayload); ok && p.value > f.best {
			f.best = p.value
			changed = true
		}
	}
	if round == 0 || changed {
		f.quiet = 0
		f.lastSent = f.best
		return env.Broadcast(testPayload{value: f.best, bits: 64})
	}
	f.quiet++
	if f.quiet > 3 {
		f.halted = true
	}
	return nil
}

func (f *floodProc) Halted() bool { return f.halted }

// counterProc counts rounds and received messages.
type counterProc struct {
	steps    int
	received int
	haltAt   int
}

func (c *counterProc) Step(env *Env, round int, in []Incoming) []Outgoing {
	c.steps++
	c.received += len(in)
	return env.Broadcast(testPayload{value: round, bits: 8})
}

func (c *counterProc) Halted() bool { return c.haltAt > 0 && c.steps >= c.haltAt }

func mustRing(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEngineDistinctIDs(t *testing.T) {
	g := mustRing(t, 50)
	e := New(g, WithSeed(1))
	seen := make(map[NodeID]bool)
	for v := 0; v < 50; v++ {
		id := e.ID(v)
		if seen[id] {
			t.Fatalf("duplicate ID at vertex %d", v)
		}
		seen[id] = true
	}
}

// TestIDCollisionFallsBackToSequentialDraw: when the slot-order draws
// collide, the IDs are those of the map-checked sequential draw, each
// duplicate replaced by the stream's next draw, on both engine paths.
// Narrowing the draws to 8 bits makes 64 of them collide.
func TestIDCollisionFallsBackToSequentialDraw(t *testing.T) {
	defer func(m NodeID) { idMask = m }(idMask)
	idMask = 0xff
	const n, seed = 64, 9
	ids := xrand.New(seed).Split("ids")
	want := make([]NodeID, n)
	seen := make(map[NodeID]bool)
	collided := false
	for v := range want {
		id := NodeID(ids.ID()) & idMask
		for seen[id] {
			collided = true
			id = NodeID(ids.ID()) & idMask
		}
		seen[id] = true
		want[v] = id
	}
	if !collided {
		t.Fatal("the narrowed draws do not collide")
	}
	lat, err := graph.NewRingLattice(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lat.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []Topology{g, lat} {
		e := New(topo, WithSeed(seed))
		for v := range n {
			if e.ID(v) != want[v] || e.envs[v].ID != want[v] {
				t.Fatalf("%T: vertex %d has ID %#x (env %#x), want %#x", topo, v, e.ID(v), e.envs[v].ID, want[v])
			}
		}
		if e.vertexOf != nil {
			t.Errorf("%T: construction built the ID index", topo)
		}
	}
}

// TestAttachAtDuplicateIDWithoutIndex: an engine that never detached
// has built no ID index; its first AttachAt builds it from the occupied
// slots and still rejects a joiner whose ID one of them holds.
func TestAttachAtDuplicateIDWithoutIndex(t *testing.T) {
	e := New(mustRing(t, 8), WithSeed(4))
	procs := make([]Proc, 8)
	for v := range procs {
		if v != 5 {
			procs[v] = &floodProc{}
		}
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if e.vertexOf != nil {
		t.Fatal("the ID index exists before any Detach or AttachAt")
	}
	if err := e.AttachAt(5, e.ID(3), &floodProc{}); err == nil {
		t.Error("AttachAt with vertex 3's ID accepted")
	}
	if err := e.AttachAt(5, 0xfeedface, &floodProc{}); err != nil {
		t.Errorf("AttachAt with a fresh ID rejected: %v", err)
	}
}

func TestEngineDeterministic(t *testing.T) {
	g := mustRing(t, 10)
	a := New(g, WithSeed(42))
	b := New(g, WithSeed(42))
	for v := 0; v < 10; v++ {
		if a.ID(v) != b.ID(v) {
			t.Fatalf("IDs diverge at %d", v)
		}
	}
}

func TestAttachSizeMismatch(t *testing.T) {
	g := mustRing(t, 4)
	e := New(g, WithSeed(1))
	if err := e.Attach(make([]Proc, 3)); err == nil {
		t.Fatal("mismatched Attach accepted")
	}
}

func TestRunBeforeAttach(t *testing.T) {
	g := mustRing(t, 4)
	e := New(g, WithSeed(1))
	if _, err := e.Run(10); err == nil {
		t.Fatal("Run before Attach accepted")
	}
}

func TestRunNegativeRounds(t *testing.T) {
	g := mustRing(t, 4)
	e := New(g, WithSeed(1))
	procs := make([]Proc, 4)
	for i := range procs {
		procs[i] = &counterProc{}
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(-1); err == nil {
		t.Fatal("negative maxRounds accepted")
	}
}

func TestMaxValueFloodConverges(t *testing.T) {
	// Classic flood: the global max must reach every node in <= diameter
	// rounds; engine must then detect global halt.
	g := mustRing(t, 16)
	e := New(g, WithSeed(7))
	procs := make([]Proc, 16)
	floods := make([]*floodProc, 16)
	for v := range procs {
		f := &floodProc{best: v}
		floods[v] = f
		procs[v] = f
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	rounds, err := e.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if rounds >= 1000 {
		t.Fatal("flood did not terminate")
	}
	for v, f := range floods {
		if f.best != 15 {
			t.Errorf("vertex %d converged to %d, want 15", v, f.best)
		}
	}
}

func TestDeliveryNextRound(t *testing.T) {
	// A message sent in round 0 must arrive in round 1, not round 0.
	g := mustRing(t, 3)
	e := New(g, WithSeed(1))
	procs := make([]Proc, 3)
	counters := make([]*counterProc, 3)
	for v := range procs {
		c := &counterProc{haltAt: 3}
		counters[v] = c
		procs[v] = c
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	// Round 0: no deliveries. Rounds 1, 2: 2 messages per node per round.
	for v, c := range counters {
		if c.received != 4 {
			t.Errorf("vertex %d received %d messages, want 4", v, c.received)
		}
	}
}

func TestHaltedSkipped(t *testing.T) {
	g := mustRing(t, 3)
	e := New(g, WithSeed(1))
	procs := make([]Proc, 3)
	counters := make([]*counterProc, 3)
	for v := range procs {
		c := &counterProc{haltAt: 1} // halt after the very first step
		counters[v] = c
		procs[v] = c
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	rounds, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if rounds > 2 {
		t.Errorf("rounds = %d, want early halt", rounds)
	}
	for v, c := range counters {
		if c.steps != 1 {
			t.Errorf("vertex %d stepped %d times after halting", v, c.steps)
		}
	}
}

func TestStopCondition(t *testing.T) {
	g := mustRing(t, 4)
	e := New(g, WithSeed(1))
	procs := make([]Proc, 4)
	for v := range procs {
		procs[v] = &counterProc{}
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	e.SetStopCondition(func(round int) bool { return round >= 4 })
	rounds, err := e.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 5 {
		t.Errorf("rounds = %d, want 5", rounds)
	}
}

func TestMetrics(t *testing.T) {
	g := mustRing(t, 4)
	e := New(g, WithSeed(1))
	procs := make([]Proc, 4)
	for v := range procs {
		procs[v] = &counterProc{haltAt: 2}
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	// 2 steps x 4 nodes x 2 neighbors = 16 messages of 8 bits.
	if m.Messages != 16 {
		t.Errorf("Messages = %d, want 16", m.Messages)
	}
	if m.Bits != 128 {
		t.Errorf("Bits = %d, want 128", m.Bits)
	}
	if m.MaxMsgBits != 8 {
		t.Errorf("MaxMsgBits = %d", m.MaxMsgBits)
	}
	for v, b := range m.PerNodeMaxBit {
		if b != 8 {
			t.Errorf("PerNodeMaxBit[%d] = %d", v, b)
		}
	}
}

// rogueProc tries to send to a non-neighbor.
type rogueProc struct{ stepped bool }

func (r *rogueProc) Step(env *Env, round int, in []Incoming) []Outgoing {
	r.stepped = true
	// Vertex 0 on a ring of 6 is not adjacent to vertex 3.
	return []Outgoing{{To: (env.Vertex + 3) % 6, Payload: testPayload{bits: 8}}}
}
func (r *rogueProc) Halted() bool { return r.stepped }

func TestNonNeighborDropped(t *testing.T) {
	g := mustRing(t, 6)
	e := New(g, WithSeed(1))
	procs := make([]Proc, 6)
	for v := range procs {
		procs[v] = &rogueProc{}
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Violations != 6 {
		t.Errorf("Violations = %d, want 6", m.Violations)
	}
	if m.Messages != 0 {
		t.Errorf("Messages = %d, want 0", m.Messages)
	}
}

func TestSenderIDStamped(t *testing.T) {
	// A process that claims a fake identity in its payload still gets the
	// true FromID stamped by the engine.
	pg, err := graph.Path(2)
	if err != nil {
		t.Fatal(err)
	}
	e := New(pg, WithSeed(9))
	var got []Incoming
	procs := []Proc{
		procFunc(func(env *Env, round int, in []Incoming) []Outgoing {
			if round == 0 {
				return env.Broadcast(testPayload{value: 999, bits: 8})
			}
			return nil
		}),
		procFunc(func(env *Env, round int, in []Incoming) []Outgoing {
			got = append(got, in...)
			return nil
		}),
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	e.SetStopCondition(func(round int) bool { return round >= 2 })
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("received %d messages", len(got))
	}
	if got[0].From != 0 || got[0].FromID != e.ID(0) {
		t.Errorf("stamped sender = (%d, %d), want (0, %d)", got[0].From, got[0].FromID, e.ID(0))
	}
}

// procFunc adapts a function to the Proc interface (never halts).
type procFunc func(env *Env, round int, in []Incoming) []Outgoing

func (f procFunc) Step(env *Env, round int, in []Incoming) []Outgoing { return f(env, round, in) }
func (f procFunc) Halted() bool                                       { return false }

func TestBroadcastMultiEdge(t *testing.T) {
	// Parallel edges mean one copy per edge.
	g := graph.New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	e := New(g, WithSeed(1))
	var count int
	procs := []Proc{
		procFunc(func(env *Env, round int, in []Incoming) []Outgoing {
			if round == 0 {
				return env.Broadcast(testPayload{bits: 8})
			}
			return nil
		}),
		procFunc(func(env *Env, round int, in []Incoming) []Outgoing {
			count += len(in)
			return nil
		}),
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	e.SetStopCondition(func(round int) bool { return round >= 2 })
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("received %d copies over a double edge, want 2", count)
	}
}

func TestEnvNodeRandIndependent(t *testing.T) {
	g := mustRing(t, 4)
	e1 := New(g, WithSeed(5))
	e2 := New(g, WithSeed(5))
	// Same engine seed: per-node streams identical across engines...
	if e1.Env(2).Rand().Uint64() != e2.Env(2).Rand().Uint64() {
		t.Error("per-node streams not reproducible")
	}
	// ...and distinct across nodes.
	if e1.Env(0).Rand().Uint64() == e1.Env(1).Rand().Uint64() {
		if e1.Env(0).Rand().Uint64() == e1.Env(1).Rand().Uint64() {
			t.Error("node streams identical")
		}
	}
}

// envProbe records the env it is handed in its first Step.
type envProbe struct {
	env    Env
	called bool
}

func (p *envProbe) Step(env *Env, round int, in []Incoming) []Outgoing {
	if !p.called {
		p.env, p.called = *env, true
	}
	return nil
}

func (p *envProbe) Halted() bool { return p.called }

// TestEnvironmentFields checks the env a proc receives in its first
// Step — the only place a proc sees an env — against the graph.
func TestEnvironmentFields(t *testing.T) {
	rng := xrand.New(20)
	g, err := graph.HND(12, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, WithSeed(11))
	probes := make([]*envProbe, g.N())
	procs := make([]Proc, g.N())
	for v := range procs {
		probes[v] = &envProbe{}
		procs[v] = probes[v]
	}
	if err := e.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	for v, p := range probes {
		env := p.env
		if !p.called {
			t.Fatalf("vertex %d never stepped", v)
		}
		if env.Vertex != v {
			t.Errorf("Vertex = %d", env.Vertex)
		}
		if env.Degree != g.Degree(v) {
			t.Errorf("Degree[%d] = %d", v, env.Degree)
		}
		if !slices.Equal(env.Neighbors, g.Neighbors(v)) {
			t.Errorf("Neighbors[%d] = %v, want %v", v, env.Neighbors, g.Neighbors(v))
		}
	}
}
