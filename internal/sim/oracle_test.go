package sim_test

// Differential oracle: refEngine is the model of Section 2 written the
// obvious way — maps, one goroutine, an explicit in-flight list — and
// TestOracleMatchesEngine runs random Proc programs on random small
// multigraphs through it and through sim.Engine at workers 1/3/8. The
// transcripts, the Metrics (field for field) and Run's return values
// must agree under every delivery configuration, with Run split into
// random chunks and the configuration switched between chunks (edge
// capacity, a between-rounds hook, parallelism, a Detach/AttachAt
// replacement), tick skipping on and off. One of the hooks churns:
// at round boundaries it detaches random vertices and attaches fresh
// plain, Sequential and, where the case has them, TickDriven programs
// in their place.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// refMsg is one admitted copy waiting in the reference's in-flight
// list, which is kept in admission order.
type refMsg struct {
	due, to int
	in      sim.Incoming
}

type refEngine struct {
	g       *graph.Graph
	seed    uint64
	procs   []sim.Proc
	envs    []sim.Env
	ids     []sim.NodeID
	delay   sim.DelayModel
	fault   sim.FaultModel
	capBits int
	noSkip  bool
	// hook, if non-nil, runs at every round boundary, as the engine's
	// between-rounds hook does, and reports whether it attached a
	// process; kept counts the rounds that would have ended the run
	// had it not.
	hook    func(tick int) bool
	kept    int
	streams map[string]*xrand.Rand
	flight  []refMsg
	m       sim.Metrics
}

func newRefEngine(g *graph.Graph, seed uint64, ids []sim.NodeID, procs []sim.Proc) *refEngine {
	r := &refEngine{g: g, seed: seed, procs: procs, ids: ids, streams: map[string]*xrand.Rand{}}
	r.envs = sim.EnvsOverIDs(g, ids)
	r.m.PerNodeMaxBit = make([]int, g.N())
	return r
}

func isTickDriven(p sim.Proc) bool { _, ok := p.(sim.TickDriven); return ok }

func (r *refEngine) stream(label string, v int) *xrand.Rand {
	key := fmt.Sprint(label, v)
	if r.streams[key] == nil {
		r.streams[key] = xrand.New(r.seed).SplitN(label, v)
	}
	return r.streams[key]
}

// replace is Detach(v) followed by AttachAt(v, id, p): the leaver's
// copies in flight are dropped.
func (r *refEngine) replace(v int, id sim.NodeID, p sim.Proc) {
	r.flight = slices.DeleteFunc(r.flight, func(m refMsg) bool { return m.to == v })
	r.procs[v], r.ids[v] = p, id
	r.envs[v].ID = id
}

func (r *refEngine) live(td bool) int {
	n := 0
	for _, p := range r.procs {
		if p != nil && !p.Halted() && isTickDriven(p) == td {
			n++
		}
	}
	return n
}

// Run has sim.Engine.Run's contract: a round ends the run (counted,
// but not in the return value) when no round-driven proc was live at
// its start, no TickDriven proc is live at its end, and the hook
// attached nothing. Without a hook, an empty round is skipped when only
// TickDriven procs are live.
func (r *refEngine) Run(maxRounds int) int {
	for round := 0; round < maxRounds; round++ {
		tick := r.m.Rounds
		due := slices.ContainsFunc(r.flight, func(m refMsg) bool { return m.due == tick })
		if !r.noSkip && r.hook == nil && !due && r.live(false) == 0 && r.live(true) > 0 {
			r.m.Rounds++
			r.m.TicksSkipped++
			r.m.MessagesByRound = append(r.m.MessagesByRound, 0)
			continue
		}
		inbox := map[int][]sim.Incoming{}
		var rest []refMsg
		for _, m := range r.flight {
			if m.due == tick {
				inbox[m.to] = append(inbox[m.to], m.in)
			} else {
				rest = append(rest, m)
			}
		}
		r.flight = rest
		liveAlways, sent := r.live(false), r.m.Messages
		for v, p := range r.procs {
			if p != nil && !p.Halted() {
				r.admit(v, tick, p.Step(&r.envs[v], round, inbox[v]))
			}
		}
		r.m.Rounds++
		r.m.MessagesByRound = append(r.m.MessagesByRound, r.m.Messages-sent)
		halted := liveAlways == 0 && r.live(true) == 0
		if r.hook != nil && r.hook(r.m.Rounds) {
			r.kept += boolInt(halted)
			halted = false
		}
		if halted {
			return round
		}
	}
	return maxRounds
}

// admit runs each copy through capacity budget, fault verdict and
// latency draw, in output order and, for a broadcast, Neighbors order.
func (r *refEngine) admit(v, tick int, out []sim.Outgoing) {
	window := 2
	if r.delay != nil {
		window = max(r.delay.MaxDelay()+1, 2)
	}
	budget := map[int]int{}
	for _, o := range out {
		targets := []int{o.To}
		if o.To == sim.AllNeighbors {
			targets = r.envs[v].Neighbors
		} else if !slices.Contains(r.envs[v].Neighbors, o.To) {
			r.m.Violations++
			continue
		}
		bits := 0
		if o.Payload != nil {
			bits = o.Payload.SizeBits()
		}
		for _, to := range targets {
			if r.capBits > 0 {
				if budget[to]+bits > r.capBits {
					r.m.Capped++
					continue
				}
				budget[to] += bits
			}
			if r.fault != nil && r.fault.Drop(r.stream("fault", v), tick, v, to) {
				r.m.Dropped++
				continue
			}
			d := 1
			if r.delay != nil {
				d = r.delay.Delay(r.stream("delay", v), tick, v, to)
				if d < 1 || d >= window {
					d = min(max(d, 1), window-1)
					r.m.DelayClamped++
				}
			}
			r.m.Messages++
			r.m.Bits += int64(bits)
			r.m.MaxMsgBits = max(r.m.MaxMsgBits, bits)
			r.m.PerNodeMaxBit[v] = max(r.m.PerNodeMaxBit[v], bits)
			r.flight = append(r.flight, refMsg{due: tick + d, to: to,
				in: sim.Incoming{From: v, FromID: r.ids[v], Payload: o.Payload}})
		}
	}
}

// progPayload's size carries its content, so the transcript fold (which
// records SizeBits) tells any two payloads apart.
type progPayload struct{ bits int }

func (p progPayload) SizeBits() int { return p.bits }

// prog is a random Proc program driven by its own stream and by what it
// receives: each step it folds the inbox and its neighbors' IDs (read
// through NeighborID, so a replacement's new ID must reach its
// neighbors at once) into its digest and state, then sends zero to
// four entries — broadcasts, unicasts to a neighbor, unicasts to a
// non-neighbor, out of range or to -2 — and halts with a small
// probability. A flooding prog instead broadcasts once and
// halts. A TickDriven prog keeps the marker's contract: on an empty
// inbox it sends nothing and changes nothing.
type prog struct {
	rng               *xrand.Rand
	sum, acc          uint64
	halted, td, flood bool
	haltPerMill       int
}

func (p *prog) Halted() bool { return p.halted }

func (p *prog) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if p.td && len(in) == 0 {
		return nil
	}
	p.sum = foldTranscript(p.sum, round, env, true, in)
	for _, m := range in {
		p.acc = p.acc*1099511628211 + uint64(m.Payload.SizeBits()) + uint64(m.FromID)
	}
	for k := range env.Neighbors {
		p.acc = p.acc*1099511628211 + uint64(env.NeighborID(k))
	}
	if p.flood {
		p.halted = true
		return env.AppendBroadcast(env.Scratch(), progPayload{bits: 1 + int(p.acc%200)})
	}
	if p.rng.Intn(7) < 1+2*boolInt(p.td) {
		return nil
	}
	out := env.Scratch()
	for k := p.rng.Intn(5); k > 0; k-- {
		pl := progPayload{bits: 1 + int((p.acc^p.rng.Uint64())%200)}
		switch c := p.rng.Intn(8); {
		case c < 4 || env.Degree == 0:
			out = env.AppendBroadcast(out, pl)
		case c < 6:
			out = append(out, sim.Outgoing{To: env.Neighbors[p.rng.Intn(env.Degree)], Payload: pl})
		default:
			to := []int{-2, env.Vertex + 1000, (env.Vertex + 1 + p.rng.Intn(40)) % 40}[c-6+p.rng.Intn(2)]
			out = append(out, sim.Outgoing{To: to, Payload: pl})
		}
	}
	p.halted = p.rng.Intn(1000) < p.haltPerMill
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

type seqProg struct{ prog }

func (*seqProg) StepsSequentially() {}

type tdProg struct{ prog }

func (*tdProg) StepsOnMessagesOnly() {}

type seqTDProg struct{ prog }

func (*seqTDProg) StepsSequentially()   {}
func (*seqTDProg) StepsOnMessagesOnly() {}

// newProg builds vertex v's program of the given kind; the same
// arguments always build the same program.
func newProg(seed uint64, v, kind int) (sim.Proc, *prog) {
	core := prog{rng: xrand.New(seed).SplitN("prog", v), haltPerMill: 15}
	switch kind {
	case 1:
		p := &seqProg{core}
		return p, &p.prog
	case 2:
		core.td, core.haltPerMill = true, 40
		p := &tdProg{core}
		return p, &p.prog
	case 3:
		core.td, core.haltPerMill = true, 40
		p := &seqTDProg{core}
		return p, &p.prog
	}
	p := &core
	return p, p
}

// oracleGraph is a random multigraph on n vertices: a ring for
// connectivity, random chords, and a self-loop and a doubled edge at
// every shard boundary of the 3- and 8-worker splits.
func oracleGraph(n int, rng *xrand.Rand) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	for k := rng.Intn(n); k > 0; k-- {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	for _, w := range []int{3, 8} {
		for i := 1; i < w; i++ {
			b := i * n / w
			g.AddEdge(b-1, b)
			g.AddEdge(b, b)
		}
	}
	return g
}

// topoOf hides the *graph.Graph type behind a wrapper over the same
// adjacency; sim.New builds every engine one way, so the wrapper must
// change nothing.
type topoOf struct{ *graph.Graph }

// oracleRun is one case's state shared by the configuration switches
// and the churning hook: the two engines, and the cores of every
// program attached, whose transcripts must agree.
type oracleRun struct {
	t     *testing.T
	eng   *sim.Engine
	ref   *refEngine
	seed  uint64
	kinds int  // program kinds the case attaches (see oracleCase)
	halt  int  // per-mille halt chance of every program, if not zero
	flood bool // every program floods (see prog)
	cores [][2]*prog
	// swap draws the replacements made between Runs, and churn those of
	// the churning hook; replay holds the hook's replacements the
	// reference has yet to apply, and churned counts them all.
	swap    *xrand.Rand
	churn   *xrand.Rand
	replay  []churnStep
	churned int
}

// churnStep is one replacement made by the engine's hook, which the
// reference applies at the same round boundary.
type churnStep struct {
	tick, v int
	id      sim.NodeID
	p       sim.Proc
}

// fresh builds a new program of the given kind for vertex v, one copy
// for each engine, and a node ID no other program holds.
func (o *oracleRun) fresh(v, kind int) (eng, ref sim.Proc, id sim.NodeID) {
	k := o.seed<<8 + uint64(len(o.cores))
	eng, core := newProg(k, v, kind)
	ref, refCore := newProg(k, v, kind)
	o.attached([2]*prog{core, refCore})
	return eng, ref, sim.NodeID(k<<24 | 0xabc)
}

// attached sets the halt chance of a new program's two cores by the
// case's rule and records them.
func (o *oracleRun) attached(c [2]*prog) {
	c[0].flood, c[1].flood = o.flood, o.flood
	switch {
	case o.halt > 0:
		c[0].haltPerMill, c[1].haltPerMill = o.halt, o.halt
	case o.kinds == 4 && !c[0].td:
		// Round-driven programs halt early, so runs of relays-only
		// ticks, which the engine may skip when empty, follow.
		c[0].haltPerMill, c[1].haltPerMill = 120, 120
	}
	o.cores = append(o.cores, c)
}

// churnEngine is the churning hook on the engine: at half the
// boundaries it replaces one or two random vertices with fresh
// programs of the case's kinds.
func (o *oracleRun) churnEngine(int) error {
	tick := o.eng.Metrics().Rounds
	for k := o.churn.Intn(4) - 1; k > 0; k-- {
		v := o.churn.Intn(len(o.ref.procs))
		np, rp, id := o.fresh(v, o.churn.Intn(o.kinds))
		if err := o.eng.Detach(v); err != nil {
			return err
		}
		if err := o.eng.AttachAt(v, id, np); err != nil {
			return err
		}
		o.replay = append(o.replay, churnStep{tick: tick, v: v, id: id, p: rp})
		o.churned++
	}
	return nil
}

// churnRef is the churning hook on the reference: it applies the
// engine's replacements made at the same boundary.
func (o *oracleRun) churnRef(tick int) bool {
	attached := false
	for len(o.replay) > 0 && o.replay[0].tick == tick {
		s := o.replay[0]
		o.ref.replace(s.v, s.id, s.p)
		o.replay = o.replay[1:]
		attached = true
	}
	return attached
}

// setHook installs hook on the engine and ref on the reference, or
// removes both when a hook is installed already.
func (o *oracleRun) setHook(hook func(int) error, ref func(int) bool) {
	if o.ref.hook != nil {
		hook, ref = nil, nil
	}
	o.ref.hook = ref
	o.eng.SetBetweenRounds(hook)
}

// switchConfig applies one configuration change between two Run
// chunks, to the engine and the reference alike.
func (o *oracleRun) switchConfig(kind int) {
	eng, ref := o.eng, o.ref
	switch kind {
	case 1: // edge capacity on or off
		ref.capBits = 150 - ref.capBits
		eng.SetEdgeCapacity(ref.capBits)
	case 2: // a hook that does nothing, on or off
		o.setHook(func(int) error { return nil }, func(int) bool { return false })
	case 3:
		eng.SetParallelism(map[bool]int{true: 1, false: 3}[eng.Parallelism() > 1])
	case 4: // replace a random program
		v := o.swap.Intn(len(ref.procs))
		np, rp, id := o.fresh(v, o.swap.Intn(o.kinds))
		if err := eng.Detach(v); err != nil {
			o.t.Fatal(err)
		}
		if err := eng.AttachAt(v, id, np); err != nil {
			o.t.Fatal(err)
		}
		ref.replace(v, id, rp)
	case 5: // the churning hook, on or off
		o.setHook(o.churnEngine, o.churnRef)
	}
}

func TestOracleMatchesEngine(t *testing.T) {
	// The last two configurations' programs halt often or flood, so
	// that runs end, with TickDriven programs too, and the churning hook
	// meets rounds in which every program halted.
	configs := []struct {
		delay, fault  string
		capBits, halt int
		flood         bool
	}{
		{"", "", 0, 0, false}, {"uniform:1-3", "", 0, 0, false}, {"gst:5/uniform:1-4", "", 0, 0, false},
		{"", "drop:0.25", 0, 0, false}, {"unit", "partition:2@3-9", 0, 0, false}, {"unit", "", 0, 0, false},
		{"", "", 150, 0, false}, {"uniform:1-2", "", 0, 250, false}, {"uniform:1-2", "", 0, 0, true},
	}
	var seen sim.Metrics // sums over all cases, to check what they reached
	churned, kept := 0, 0
	for gseed := uint64(1); gseed <= 4; gseed++ {
		rng := xrand.New(7000 + gseed)
		n := 16 + rng.Intn(25)
		g := oracleGraph(n, rng)
		for ci, c := range configs {
			for _, workers := range workerCounts {
				for _, skip := range []bool{true, false} {
					seed := 100*gseed + uint64(ci)
					name := fmt.Sprintf("g%d/n=%d/%q/%q/cap=%d/halt=%d/flood=%v/workers=%d/skip=%v", gseed, n, c.delay, c.fault, c.capBits, c.halt, c.flood, workers, skip)
					t.Run(name, func(t *testing.T) {
						m, o := oracleCase(t, g, seed, c.delay, c.fault, c.capBits, c.halt, c.flood, workers, skip)
						churned += o.churned
						kept += o.ref.kept
						seen.Violations += m.Violations
						seen.Capped += m.Capped
						seen.Dropped += m.Dropped
						seen.TicksSkipped += m.TicksSkipped
					})
				}
			}
		}
	}
	if seen.Violations == 0 || seen.Capped == 0 || seen.Dropped == 0 || seen.TicksSkipped == 0 || churned == 0 || kept == 0 {
		t.Errorf("the cases never reached one of violations, capping, drops, tick skips, hook churn and a run kept going by it: %+v, %d replacements, %d rounds kept", seen, churned, kept)
	}
}

// oracleCase runs one configuration for 40 rounds in random Run chunks
// and compares the engine with the reference; it returns the engine's
// metrics and the case's state. The seed's hundreds (the graph) pick
// the substrate path, and its parity with the configuration index
// whether TickDriven programs are attached. A nonzero halt is every
// program's per-mille chance to halt at a step, and with flood every
// program floods.
func oracleCase(t *testing.T, g *graph.Graph, seed uint64, delaySpec, faultSpec string, capBits, halt int, flood bool, workers int, skip bool) (sim.Metrics, *oracleRun) {
	delay, err := sim.ParseDelayModel(delaySpec)
	if err != nil {
		t.Fatal(err)
	}
	fault, err := sim.ParseFaultModel(faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	var topo sim.Topology = g
	if seed/100%2 == 1 {
		topo = topoOf{g}
	}
	eng := sim.New(topo, sim.WithSeed(seed))
	eng.SetParallelism(workers)
	eng.SetTickSkip(skip)
	eng.SetEdgeCapacity(capBits)
	if delay != nil {
		eng.SetDelayModel(delay)
	}
	if fault != nil {
		eng.SetFaultModel(fault)
	}
	n := g.N()
	procs, refProcs := make([]sim.Proc, n), make([]sim.Proc, n)
	ids := make([]sim.NodeID, n)
	// Kinds: 0 plain, 1 Sequential, 2 TickDriven, 3 both. TickDriven
	// programs only relay, so plain programs stay among them.
	o := &oracleRun{t: t, eng: eng, seed: seed, kinds: 2, halt: halt, flood: flood,
		swap: xrand.New(seed).Split("swap"), churn: xrand.New(seed).Split("churn")}
	if (seed/100+seed%100)%2 == 1 {
		o.kinds = 4
	}
	for v := range procs {
		kind := rng.Intn(o.kinds)
		var c [2]*prog
		procs[v], c[0] = newProg(seed, v, kind)
		refProcs[v], c[1] = newProg(seed, v, kind)
		o.attached(c)
		ids[v] = eng.ID(v)
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	ref := newRefEngine(g, seed, ids, refProcs)
	ref.delay, ref.fault, ref.capBits, ref.noSkip = delay, fault, capBits, !skip
	o.ref = ref
	for left := 40; left > 0; {
		chunk := 1 + rng.Intn(min(left, 12))
		left -= chunk
		got, err := eng.Run(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Run(chunk); got != want {
			t.Fatalf("Run(%d) = %d, reference %d", chunk, got, want)
		}
		if err := eng.OccupancyError(); err != nil {
			t.Fatalf("after Run(%d): %v", chunk, err)
		}
		o.switchConfig(rng.Intn(6))
		if err := eng.OccupancyError(); err != nil {
			t.Fatalf("after a configuration switch: %v", err)
		}
	}
	if len(o.replay) > 0 {
		t.Errorf("the reference never reached the boundary of %d hook replacements", len(o.replay))
	}
	for i, c := range o.cores {
		if c[0].sum != c[1].sum {
			t.Errorf("program %d (vertex %d) transcript %016x, reference %016x", i, i%n, c[0].sum, c[1].sum)
			break
		}
	}
	got := eng.Metrics()
	if !reflect.DeepEqual(got, ref.m) {
		t.Errorf("metrics differ from the reference:\n got %+v\nwant %+v", got, ref.m)
	}
	if got.Messages == 0 {
		t.Error("no message was delivered")
	}
	return got, o
}
