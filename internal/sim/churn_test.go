package sim_test

// Determinism and safety guards for the unified engine's mutable-
// topology path: a transcript digest over every delivered message of a
// CONGEST counting run under a join/leave storm, pinned serial vs the
// sharded parallel engine; a property run asserting the topology
// invariants hold after every round of a 500-round churn run (balanced,
// growing, and shrinking churn, serial and parallel); and unit tests
// for the Detach/AttachAt membership lifecycle.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/dynamic"
	"byzcount/internal/graph"
	"byzcount/internal/perf"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// slotDigestProc folds every delivered message into a per-slot digest
// (foldTranscript with the receiving ID included, so slot recycling is
// pinned too) shared across the slot's successive occupants: each
// joiner's wrapper chains onto the accumulator the departed node left,
// so the combined digest covers the whole membership history in slot
// order. Per-slot state keeps the wrapper safe under the sharded
// parallel engine.
type slotDigestProc struct {
	inner sim.Proc
	slot  int
	sums  []uint64
}

func (p *slotDigestProc) Halted() bool { return p.inner.Halted() }

func (p *slotDigestProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	p.sums[p.slot] = foldTranscript(p.sums[p.slot], round, env, true, in)
	return p.inner.Step(env, round, in)
}

// runChurnTranscript executes a CONGEST counting run under a churn storm
// (two leaves and two joins between every round for the first 60 rounds)
// with transcript recording, and returns the combined digest plus the
// run's metrics and churn counts.
func runChurnTranscript(t *testing.T, workers int) (string, sim.Metrics, int, int) {
	t.Helper()
	const n, d = 128, 8
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 8
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	net, err := dynamic.NewNetwork(n, d, xrand.New(4001))
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]uint64, 4*n) // room for slot-table growth
	run, err := dynamic.NewRunner(net, dynamic.Churn{Leaves: 2, Joins: 2, StopAfter: 60, Mixed: true}, 4002,
		func(slot dynamic.Slot, id sim.NodeID) sim.Proc {
			return &slotDigestProc{inner: counting.NewCongestProc(params), slot: slot, sums: sums}
		})
	if err != nil {
		t.Fatal(err)
	}
	run.SetParallelism(workers)
	if _, err := run.Run(maxRounds); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, sum := range sums {
		for i := 0; i < 8; i++ {
			buf[i] = byte(sum >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64()), run.Metrics(), run.Joined(), run.Left()
}

// TestChurnTranscriptSerialParallel pins the parallel engine's delivery
// transcript under a join/leave storm to the serial engine's: same
// digest, same metrics, same churn counts for workers 3 and 8.
func TestChurnTranscriptSerialParallel(t *testing.T) {
	want, wantM, wantJ, wantL := runChurnTranscript(t, 1)
	if wantJ == 0 || wantL == 0 {
		t.Fatal("storm applied no churn; the scenario is degenerate")
	}
	if wantM.Messages == 0 {
		t.Fatal("scenario delivered no messages")
	}
	for _, w := range []int{3, 8} {
		got, gotM, gotJ, gotL := runChurnTranscript(t, w)
		if got != want {
			t.Errorf("workers=%d: churn transcript digest %s != serial %s", w, got, want)
		}
		if !reflect.DeepEqual(wantM, gotM) {
			t.Errorf("workers=%d: metrics diverge:\nserial:   %+v\nparallel: %+v", w, wantM, gotM)
		}
		if gotJ != wantJ || gotL != wantL {
			t.Errorf("workers=%d: churn %d/%d != serial %d/%d", w, gotJ, gotL, wantJ, wantL)
		}
	}
}

// runChurnByzTranscript executes a CONGEST counting run under
// SIMULTANEOUS churn and beacon spam — the cross-product path E16-E18
// exercise: a join/leave storm for the first 60 rounds while a roster
// keeps ~8% of the membership Byzantine (initial members by placement,
// joiners by the roster's stream), honest slots counting and Byzantine
// slots spamming fabricated beacons. Returns the combined per-slot
// transcript digest plus metrics and churn counts.
func runChurnByzTranscript(t *testing.T, workers int) (string, sim.Metrics, int, int) {
	t.Helper()
	const n, d = 128, 8
	byzFrac := 0.08
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 8
	rng := xrand.New(4005)
	net, err := dynamic.NewNetwork(n, d, rng.Split("net"))
	if err != nil {
		t.Fatal(err)
	}
	mask, err := byzantine.RandomPlacement(net, int(byzFrac*float64(n)), rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	roster, err := byzantine.NewRoster(mask, net.NumAlive(), byzFrac, rng.Split("roster"))
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]uint64, 4*n)
	initial := true
	run, err := dynamic.NewRunner(net, dynamic.Churn{Leaves: 2, Joins: 2, StopAfter: 60, Mixed: true}, 4006,
		func(slot dynamic.Slot, id sim.NodeID) sim.Proc {
			isByz := roster.IsByz(slot)
			if !initial {
				isByz = roster.OnJoin(slot)
			}
			var inner sim.Proc = counting.NewCongestProc(params)
			if isByz {
				inner = byzantine.NewBeaconSpammer(params.Schedule, 6, false, rng.SplitN("spam", slot))
			}
			return &slotDigestProc{inner: inner, slot: slot, sums: sums}
		})
	if err != nil {
		t.Fatal(err)
	}
	initial = false
	run.SetLeaveHook(roster.OnLeave)
	run.SetParallelism(workers)
	if _, err := run.Run(400); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, sum := range sums {
		for i := 0; i < 8; i++ {
			buf[i] = byte(sum >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64()), run.Metrics(), run.Joined(), run.Left()
}

// TestChurnByzTranscriptSerialParallel pins the delivery transcript of
// the combined churn + Byzantine scenario to the serial engine's for
// workers 3 and 8 — the determinism contract extended to the
// cross-product path (adversary procs stepping on recycled slots while
// the roster turns the membership over).
func TestChurnByzTranscriptSerialParallel(t *testing.T) {
	want, wantM, wantJ, wantL := runChurnByzTranscript(t, 1)
	if wantJ == 0 || wantL == 0 {
		t.Fatal("storm applied no churn; the scenario is degenerate")
	}
	if wantM.Messages == 0 {
		t.Fatal("scenario delivered no messages")
	}
	for _, w := range []int{3, 8} {
		got, gotM, gotJ, gotL := runChurnByzTranscript(t, w)
		if got != want {
			t.Errorf("workers=%d: churn+byz transcript digest %s != serial %s", w, got, want)
		}
		if !reflect.DeepEqual(wantM, gotM) {
			t.Errorf("workers=%d: metrics diverge:\nserial:   %+v\nparallel: %+v", w, wantM, gotM)
		}
		if gotJ != wantJ || gotL != wantL {
			t.Errorf("workers=%d: churn %d/%d != serial %d/%d", w, gotJ, gotL, wantJ, wantL)
		}
	}
}

// TestChurnValidateEveryRound: over a 500-round churn run the topology
// invariants (every cycle a single ring over exactly the alive slots)
// hold after every round — for balanced churn, net growth (which forces
// the engine's slot arrays and worker shards to rebuild mid-run), and
// net shrink down to the 3-node floor, serially and sharded.
func TestChurnValidateEveryRound(t *testing.T) {
	churns := []dynamic.Churn{
		{Leaves: 2, Joins: 2, Mixed: true},
		{Leaves: 1, Joins: 2, Mixed: true}, // grows past the constructed capacity
		{Leaves: 2, Joins: 1, Mixed: true}, // shrinks to the floor
	}
	for _, churn := range churns {
		t.Run(fmt.Sprintf("leaves=%d,joins=%d", churn.Leaves, churn.Joins), func(t *testing.T) {
			runOnce := func(workers int) sim.Metrics {
				t.Helper()
				net, err := dynamic.NewNetwork(64, 4, xrand.New(4003))
				if err != nil {
					t.Fatal(err)
				}
				run, err := dynamic.NewRunner(net, churn, 4004,
					func(slot dynamic.Slot, id sim.NodeID) sim.Proc { return &perf.FloodProc{} })
				if err != nil {
					t.Fatal(err)
				}
				run.SetParallelism(workers)
				var invariant error
				rounds := 0
				// The stop condition runs after every round's churn has been
				// applied, so it observes exactly the topology the next round
				// will execute on.
				run.Engine().SetStopCondition(func(round int) bool {
					rounds++
					if err := net.Validate(); err != nil && invariant == nil {
						invariant = fmt.Errorf("round %d: %w", round, err)
					}
					return invariant != nil
				})
				if _, err := run.Run(500); err != nil {
					t.Fatal(err)
				}
				if invariant != nil {
					t.Fatalf("workers=%d: %v", workers, invariant)
				}
				if rounds != 500 {
					t.Fatalf("workers=%d: run stopped after %d rounds, want 500", workers, rounds)
				}
				alive := 0
				for s := 0; s < net.Slots(); s++ {
					if net.Alive(s) {
						if run.Proc(s) == nil {
							t.Fatalf("alive slot %d has no process", s)
						}
						alive++
					} else if run.Proc(s) != nil {
						t.Fatalf("dead slot %d still has a process", s)
					}
				}
				if alive != net.NumAlive() {
					t.Fatalf("alive mask counts %d, NumAlive says %d", alive, net.NumAlive())
				}
				return run.Metrics()
			}
			// Growth and shrink must not perturb determinism either: the
			// sharded run's metrics match the serial run's exactly, mid-run
			// worker-shard rebuilds included.
			serialM := runOnce(1)
			if gotM := runOnce(3); !reflect.DeepEqual(serialM, gotM) {
				t.Errorf("metrics diverge from serial:\nserial:   %+v\nparallel: %+v", serialM, gotM)
			}
		})
	}
}

// TestDetachAttachLifecycle covers the membership API directly on a
// static engine: detached vertices are skipped, recycled slots accept a
// joiner exactly once, the ID index follows the turnover, and the
// neighbors read the joiner's ID through NeighborID. Growth past the
// topology's slots is rejected on a materialized graph and on the
// implicit lattice and torus alike.
func TestDetachAttachLifecycle(t *testing.T) {
	g := mustHND(t, 32, 4, 5001)
	eng := sim.New(g, sim.WithSeed(5002))
	procs := make([]sim.Proc, 32)
	for v := range procs {
		procs[v] = &perf.FloodProc{}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	oldID := eng.ID(7)
	if err := eng.Detach(7); err != nil {
		t.Fatal(err)
	}
	if err := eng.Detach(7); err == nil {
		t.Error("double Detach accepted")
	}
	if eng.Proc(7) != nil {
		t.Error("detached slot still has a process")
	}
	// The departed ID is released from the ID index: it may rejoin.
	if err := eng.AttachAt(7, oldID, &perf.FloodProc{}); err != nil {
		t.Errorf("departed ID still indexed: %v", err)
	}
	if err := eng.Detach(7); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(3); err != nil {
		t.Fatal(err)
	}
	const newID = sim.NodeID(0xfeedface)
	if err := eng.AttachAt(7, newID, &perf.FloodProc{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachAt(7, sim.NodeID(1), &perf.FloodProc{}); err == nil {
		t.Error("AttachAt on an occupied slot accepted")
	}
	if err := eng.AttachAt(3, newID, &perf.FloodProc{}); err == nil {
		t.Error("duplicate-ID AttachAt accepted")
	}
	if err := eng.AttachAt(5, sim.NodeID(2), nil); err == nil {
		t.Error("nil-process AttachAt accepted")
	}
	if err := eng.AttachAt(64, sim.NodeID(3), &perf.FloodProc{}); err == nil {
		t.Error("growth beyond a static graph accepted")
	}
	lat, err := graph.NewRingLattice(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := graph.NewTorusGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []sim.Topology{lat, torus} {
		imp := sim.New(topo, sim.WithSeed(5002))
		procs := make([]sim.Proc, topo.Slots())
		for v := range procs {
			procs[v] = &perf.FloodProc{}
		}
		if err := imp.Attach(procs); err != nil {
			t.Fatal(err)
		}
		if err := imp.AttachAt(64, sim.NodeID(3), &perf.FloodProc{}); err == nil {
			t.Errorf("%T: growth beyond the topology's 64 slots accepted", topo)
		}
		if imp.Slots() != 64 {
			t.Errorf("%T: a rejected AttachAt left %d slots, want 64", topo, imp.Slots())
		}
		if _, err := imp.Run(2); err != nil {
			t.Fatal(err)
		}
	}
	if eng.ID(7) != newID {
		t.Error("slot 7 does not carry the joiner's ID")
	}
	for _, w := range g.Neighbors(7) {
		env := eng.Env(w)
		for k, x := range env.Neighbors {
			if x == 7 && env.NeighborID(k) != newID {
				t.Errorf("vertex %d still reads the old ID of vertex 7", w)
			}
		}
	}
	if _, err := eng.Run(3); err != nil {
		t.Fatal(err)
	}
	if eng.Metrics().Messages == 0 {
		t.Error("no traffic after recycling")
	}
}

// TestNeighborIDFollowsAttachAt: when AttachAt gives a slot a new ID,
// every neighbor's NeighborID returns it at once, before another round
// runs, on an engine over a graph and over an implicit ring lattice,
// whose neighborhoods are computed on demand, and every other entry
// still reads its neighbor's ID. AttachAt refreshes the joiner's own
// env.
func TestNeighborIDFollowsAttachAt(t *testing.T) {
	lat, err := graph.NewRingLattice(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		topo sim.Topology
	}{{"static", mustHND(t, 32, 4, 5001)}, {"implicit", lat}} {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo
			eng := sim.New(topo, sim.WithSeed(5002))
			procs := make([]sim.Proc, topo.Slots())
			for v := range procs {
				procs[v] = &perf.FloodProc{}
			}
			if err := eng.Attach(procs); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(1); err != nil { // resolves every neighborhood
				t.Fatal(err)
			}
			for i, v := range []int{7, 0, 31, 7} {
				newID := sim.NodeID(0xfeed0000 + uint64(i))
				if err := eng.Detach(v); err != nil {
					t.Fatal(err)
				}
				if err := eng.AttachAt(v, newID, &perf.FloodProc{}); err != nil {
					t.Fatal(err)
				}
				if env := eng.Env(v); env.ID != newID || env.Degree != topo.Degree(v) {
					t.Fatalf("joiner at %d: env ID %x degree %d, want %x and %d", v, env.ID, env.Degree, newID, topo.Degree(v))
				}
				seen := 0
				for w := 0; w < topo.Slots(); w++ {
					env := eng.Env(w)
					for k, x := range env.Neighbors {
						if got := env.NeighborID(k); got != eng.ID(x) {
							t.Fatalf("vertex %d reads ID %x for neighbor %d, which holds %x", w, got, x, eng.ID(x))
						}
						if x == v {
							seen++
						}
					}
				}
				if seen != topo.Degree(v) {
					t.Fatalf("%d neighbor entries point at %d, want its degree %d", seen, v, topo.Degree(v))
				}
				if _, err := eng.Run(1); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
