package sim_test

// Equivalence of the one-entry broadcast (To: sim.AllNeighbors) with
// the per-edge encoding: a process that writes one Outgoing per
// incident edge must produce the same transcript and the same Metrics,
// field for field, as one that calls AppendBroadcast — under every
// delivery path (pull on lockstep ticks, serial and parallel, with
// Sequential procs stepped on the coordinator; push through deliverVT
// into the ring or the parallel buckets and the merge), every
// delivery model, with and without an edge capacity that caps some
// copies.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"byzcount/internal/graph"
	"byzcount/internal/sim"
)

// mixPayload carries its size so the transcript fold (default arm)
// tells the entries of one output apart.
type mixPayload struct{ bits int }

func (p mixPayload) SizeBits() int { return p.bits }

// mixCore is the shared step of the equivalence procs. Each sending
// step emits, in order: a broadcast, a unicast to a neighbor, a
// unicast to a non-neighbor, a unicast to -2, and a second broadcast.
// perEdge selects the reference encoding, one Outgoing per incident
// edge, for both broadcasts. Under a 128-bit edge capacity the second
// broadcast (and, on a parallel edge, the unicast) overflows some
// edges, so capping is exercised per copy.
type mixCore struct {
	perEdge bool
	quiet   bool // send only on a non-empty inbox (the TickDriven contract)
	sum     uint64
	sends   int64
}

func (c *mixCore) step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if len(in) > 0 {
		c.sum = foldTranscript(c.sum, round, env, false, in)
	}
	if c.quiet && len(in) == 0 {
		return nil
	}
	c.sends++
	out := env.Scratch()
	out = c.broadcast(env, out, mixPayload{bits: 64 + round%4})
	out = append(out, sim.Outgoing{To: env.Neighbors[round%env.Degree], Payload: mixPayload{bits: 40}})
	out = append(out, sim.Outgoing{To: nonNeighbor(env), Payload: mixPayload{bits: 8}})
	out = append(out, sim.Outgoing{To: -2, Payload: mixPayload{bits: 8}})
	return c.broadcast(env, out, mixPayload{bits: 72})
}

func (c *mixCore) broadcast(env *sim.Env, out []sim.Outgoing, p sim.Payload) []sim.Outgoing {
	if !c.perEdge {
		return env.AppendBroadcast(out, p)
	}
	for _, w := range env.Neighbors {
		out = append(out, sim.Outgoing{To: w, Payload: p})
	}
	return out
}

// nonNeighbor returns the first vertex after env's own that is not one
// of its neighbors.
func nonNeighbor(env *sim.Env) int {
	w := env.Vertex + 1
	for slices.Contains(env.Neighbors, w) {
		w++
	}
	return w
}

// mixProc steps every round; mixSeqProc is the same proc stepped on
// the parallel engine's coordinator; mixRelay is TickDriven.
type mixProc struct{ mixCore }

func (p *mixProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	return p.step(env, round, in)
}
func (p *mixProc) Halted() bool { return false }

type mixSeqProc struct{ mixProc }

func (*mixSeqProc) StepsSequentially() {}

type mixRelay struct{ mixCore }

func (p *mixRelay) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	return p.step(env, round, in)
}
func (p *mixRelay) Halted() bool         { return false }
func (p *mixRelay) StepsOnMessagesOnly() {}

// mixInjector seeds the relay variant: it sends one output in its
// first Step and halts, so every live proc is then TickDriven and empty
// ticks may be skipped.
type mixInjector struct {
	mixCore
	fired bool
}

func (p *mixInjector) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if p.fired {
		return nil
	}
	p.fired = true
	return p.step(env, round, in)
}
func (p *mixInjector) Halted() bool { return p.fired }

// mixLattice is the ring lattice C_96^2 (each vertex joined to the two
// nearest on either side) plus a second 8-9 edge, which 8 and 9 pull
// in a shard they share at every split.
func mixLattice() *graph.Graph {
	const n = 96
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		g.AddEdge(v, (v+2)%n)
	}
	g.AddEdge(8, 9)
	return g
}

// mixMultigraph is mixLattice with, at every shard boundary b of the
// 3- and 8-worker splits, a second (b-1, b) edge and a self-loop at b,
// so the pulls that count a sender's copies read it across a shard
// boundary.
func mixMultigraph() *graph.Graph {
	g := mixLattice()
	for _, w := range []int{3, 8} {
		for i := 1; i < w; i++ {
			b := i * g.N() / w
			g.AddEdge(b-1, b)
			g.AddEdge(b, b)
		}
	}
	return g
}

// mixRun executes one configuration on g and returns the combined
// digest, the metrics and the number of sending steps.
func mixRun(t *testing.T, g *graph.Graph, variant string, workers int, delaySpec, faultSpec string, capBits int, perEdge bool) (string, sim.Metrics, int64) {
	t.Helper()
	const rounds = 24
	n := g.N()
	delay, err := sim.ParseDelayModel(delaySpec)
	if err != nil {
		t.Fatal(err)
	}
	fault, err := sim.ParseFaultModel(faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(13))
	eng.SetParallelism(workers)
	eng.SetDelayModel(delay)
	eng.SetFaultModel(fault)
	eng.SetEdgeCapacity(capBits)
	procs := make([]sim.Proc, n)
	cores := make([]*mixCore, n)
	for v := range procs {
		core := mixCore{perEdge: perEdge}
		switch {
		case variant == "sparse" && v == 0:
			p := &mixInjector{mixCore: core}
			procs[v], cores[v] = p, &p.mixCore
		case variant == "sparse":
			core.quiet = true
			p := &mixRelay{core}
			procs[v], cores[v] = p, &p.mixCore
		case variant == "sequential" && v%5 == 2:
			p := &mixSeqProc{mixProc{core}}
			procs[v], cores[v] = p, &p.mixCore
		default:
			p := &mixProc{core}
			procs[v], cores[v] = p, &p.mixCore
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(rounds); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	var sends int64
	for _, c := range cores {
		for i := range buf {
			buf[i] = byte(c.sum >> (8 * i))
		}
		h.Write(buf[:])
		sends += c.sends
	}
	return fmt.Sprintf("%016x", h.Sum64()), eng.Metrics(), sends
}

// TestBroadcastEntryTranscriptMatchesPerEdge pins the one-entry broadcast to the
// per-edge reference encoding on an H(n,d), whose senders mostly span
// shards, on mixLattice, whose senders mostly do not, and on
// mixMultigraph; all have parallel edges. On a tick that pushes, both
// encodings share deliverVT's one per-copy loop (a broadcast walks the
// sender's neighbors, a unicast is a one-element target list), so their
// agreement cannot show that loop wrong: TestOracleMatchesEngine, whose
// reference engine admits every copy on its own, is the independent
// check.
func TestBroadcastEntryTranscriptMatchesPerEdge(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"hnd", mustHND(t, 48, 8, 1301)},
		{"lattice", mixLattice()},
		{"multigraph", mixMultigraph()},
	}
	for _, gc := range graphs {
		if gc.g.IsSimple() {
			t.Fatalf("the %s test graph must have parallel edges", gc.name)
		}
	}
	models := []struct{ delay, fault string }{
		{"unit", ""},
		{"uniform:1-4", ""},
		{"unit", "drop:0.2"},
		{"unit", "partition:2@2-6"},
		{"uniform:1-4", "drop:0.2"},
	}
	for _, gc := range graphs {
		for _, variant := range []string{"dense", "sparse", "sequential"} {
			for _, workers := range workerCounts {
				for _, m := range models {
					for _, capBits := range []int{0, 128} {
						name := fmt.Sprintf("%s/%s/workers=%d/%s/%s/cap=%d", gc.name, variant, workers, m.delay, m.fault, capBits)
						t.Run(name, func(t *testing.T) {
							wantSum, want, wantSends := mixRun(t, gc.g, variant, workers, m.delay, m.fault, capBits, true)
							gotSum, got, gotSends := mixRun(t, gc.g, variant, workers, m.delay, m.fault, capBits, false)
							if gotSum != wantSum {
								t.Errorf("transcript %s, per-edge reference %s", gotSum, wantSum)
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("metrics differ from the per-edge reference:\n got %+v\nwant %+v", got, want)
							}
							if gotSends != wantSends {
								t.Errorf("%d sending steps, per-edge reference %d", gotSends, wantSends)
							}
							// Every sending step addresses one non-neighbor and -2.
							if got.Violations != 2*gotSends {
								t.Errorf("%d violations over %d sending steps, want 2 per step", got.Violations, gotSends)
							}
							if capBits > 0 && got.Capped == 0 {
								t.Error("the edge capacity capped nothing")
							}
							if m.fault != "" && got.Dropped == 0 {
								t.Error("the fault model dropped nothing")
							}
						})
					}
				}
			}
		}
	}
}
