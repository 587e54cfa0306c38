package dynamic

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"byzcount/internal/counting"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// idleProc is a minimal never-halting process for churn-mechanics tests
// that do not care about traffic.
type idleProc struct{}

func (idleProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing { return nil }
func (idleProc) Halted() bool                                                   { return false }

func mustNet(t *testing.T, n, d int, seed uint64) *Network {
	t.Helper()
	net, err := NewNetwork(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewNetworkInvariants(t *testing.T) {
	net := mustNet(t, 50, 8, 1)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if net.NumAlive() != 50 || net.Degree(0) != 8 {
		t.Errorf("alive=%d degree=%d", net.NumAlive(), net.Degree(0))
	}
	for s := 0; s < 50; s++ {
		if len(net.Neighbors(s)) != 8 {
			t.Fatalf("slot %d has %d neighbors", s, len(net.Neighbors(s)))
		}
	}
}

func TestNewNetworkErrors(t *testing.T) {
	rng := xrand.New(1)
	if _, err := NewNetwork(2, 4, rng); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := NewNetwork(10, 3, rng); err == nil {
		t.Error("odd d accepted")
	}
}

func TestLeaveRepairsCycles(t *testing.T) {
	net := mustNet(t, 20, 4, 2)
	if err := net.Leave(7); err != nil {
		t.Fatal(err)
	}
	if net.Alive(7) {
		t.Error("slot still alive")
	}
	if d := net.Degree(7); d != 0 {
		t.Errorf("departed slot has degree %d, want 0", d)
	}
	if net.NumAlive() != 19 {
		t.Errorf("alive = %d", net.NumAlive())
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nobody lists the departed slot as a neighbor.
	for s := 0; s < net.Slots(); s++ {
		if !net.Alive(s) {
			continue
		}
		for _, w := range net.Neighbors(s) {
			if w == 7 {
				t.Fatalf("slot %d still points at departed 7", s)
			}
		}
	}
}

func TestLeaveErrors(t *testing.T) {
	net := mustNet(t, 20, 4, 3)
	if err := net.Leave(7); err != nil {
		t.Fatal(err)
	}
	if err := net.Leave(7); err == nil {
		t.Error("double leave accepted")
	}
	// Shrink guard.
	small := mustNet(t, 4, 2, 4)
	if err := small.Leave(0); err != nil {
		t.Fatal(err)
	}
	if err := small.Leave(1); err == nil {
		t.Error("shrink below 3 accepted")
	}
}

func TestJoinRecyclesSlots(t *testing.T) {
	net := mustNet(t, 10, 4, 5)
	rng := xrand.New(6)
	if err := net.Leave(3); err != nil {
		t.Fatal(err)
	}
	s := net.Join(rng)
	if s != 3 {
		t.Errorf("join got slot %d, want recycled 3", s)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	// Joining with no free slots extends the table.
	s2 := net.Join(rng)
	if s2 != 10 {
		t.Errorf("fresh join got slot %d, want 10", s2)
	}
	if net.NumAlive() != 11 {
		t.Errorf("alive = %d", net.NumAlive())
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChurnStormKeepsInvariants(t *testing.T) {
	// Property: any interleaving of joins and leaves preserves the cycle
	// invariants and d-regularity.
	f := func(ops []bool, seedRaw uint16) bool {
		rng := xrand.New(uint64(seedRaw))
		net, err := NewNetwork(12, 4, rng.Split("init"))
		if err != nil {
			return false
		}
		churn := rng.Split("churn")
		for _, isJoin := range ops {
			if isJoin {
				net.Join(churn)
			} else if net.NumAlive() > 3 {
				if err := net.Leave(net.RandomAlive(churn)); err != nil {
					return false
				}
			}
		}
		if net.Validate() != nil {
			return false
		}
		for s := 0; s < net.Slots(); s++ {
			if net.Alive(s) && len(net.Neighbors(s)) != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustRunner(t *testing.T, net *Network, churn Churn, seed uint64, factory ProcFactory) *Runner {
	t.Helper()
	r, err := NewRunner(net, churn, seed, factory)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunnerZeroChurnMatchesStaticBehaviour(t *testing.T) {
	const n, d = 128, 8
	net := mustNet(t, n, d, 7)
	params := counting.DefaultCongestParams(d)
	eng := mustRunner(t, net, Churn{}, 8, func(slot Slot, id sim.NodeID) sim.Proc {
		return counting.NewCongestProc(params)
	})
	rounds, err := eng.Run(params.Schedule.RoundsThroughPhase(params.MaxPhase + 1))
	if err != nil {
		t.Fatal(err)
	}
	if rounds >= params.Schedule.RoundsThroughPhase(params.MaxPhase+1) {
		t.Error("zero-churn run did not terminate early")
	}
	procs, _ := eng.AliveProcs()
	decided, bounded := 0, 0
	for _, p := range procs {
		o := p.(*counting.CongestProc).Outcome()
		if o.Decided {
			decided++
			if o.Estimate >= 2 && o.Estimate <= 8 {
				bounded++
			}
		}
	}
	if decided != n {
		t.Fatalf("decided %d/%d", decided, n)
	}
	if bounded < n*9/10 {
		t.Errorf("bounded %d/%d", bounded, n)
	}
}

func TestRunnerUnderChurn(t *testing.T) {
	const n, d = 128, 8
	net := mustNet(t, n, d, 9)
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 8
	// One leave and one join per round for the first 120 rounds, then
	// quiesce: the size stays ~n while roughly the whole membership turns
	// over once.
	eng := mustRunner(t, net, Churn{Leaves: 1, Joins: 1, StopAfter: 120}, 10,
		func(slot Slot, id sim.NodeID) sim.Proc {
			return counting.NewCongestProc(params)
		})
	if _, err := eng.Run(params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)); err != nil {
		t.Fatal(err)
	}
	if eng.Joined() == 0 || eng.Left() == 0 {
		t.Fatal("churn did not happen")
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	procs, _ := eng.AliveProcs()
	decided, bounded := 0, 0
	for _, p := range procs {
		o := p.(*counting.CongestProc).Outcome()
		if o.Decided {
			decided++
			if o.Estimate >= 2 && o.Estimate <= params.MaxPhase {
				bounded++
			}
		}
	}
	frac := float64(decided) / float64(len(procs))
	if frac < 0.9 {
		t.Errorf("decided fraction %g under churn", frac)
	}
	if float64(bounded) < 0.85*float64(len(procs)) {
		t.Errorf("bounded %d of %d alive under churn", bounded, len(procs))
	}
}

func TestRunnerNegativeRounds(t *testing.T) {
	net := mustNet(t, 10, 4, 11)
	eng := mustRunner(t, net, Churn{}, 12, func(slot Slot, id sim.NodeID) sim.Proc {
		return counting.NewCongestProc(counting.DefaultCongestParams(4))
	})
	if _, err := eng.Run(-1); err == nil {
		t.Error("negative rounds accepted")
	}
}

func TestRunnerMetricsAndAccessors(t *testing.T) {
	net := mustNet(t, 16, 4, 13)
	eng := mustRunner(t, net, Churn{}, 14, func(slot Slot, id sim.NodeID) sim.Proc {
		return counting.NewCongestProc(counting.DefaultCongestParams(4))
	})
	if eng.Engine() == nil {
		t.Error("Engine accessor")
	}
	if eng.Proc(0) == nil || eng.Proc(-1) != nil || eng.Proc(99) != nil {
		t.Error("Proc accessor")
	}
	if _, err := eng.Run(50); err != nil {
		t.Fatal(err)
	}
	if eng.Metrics().Messages == 0 {
		t.Error("no messages recorded")
	}
}

// TestRunnerParallelMatchesSerial: the same churn scenario must produce
// identical joined/left counts, metrics, and outcomes for every engine
// worker count — churn runs inherit the unified engine's determinism
// contract (the full transcript pin lives in internal/sim/churn_test.go).
func TestRunnerParallelMatchesSerial(t *testing.T) {
	const n, d = 96, 8
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 6
	run := func(workers int) (sim.Metrics, int, int, []counting.Outcome) {
		net := mustNet(t, n, d, 21)
		eng := mustRunner(t, net, Churn{Leaves: 2, Joins: 2, StopAfter: 60}, 22,
			func(slot Slot, id sim.NodeID) sim.Proc {
				return counting.NewCongestProc(params)
			})
		eng.SetParallelism(workers)
		if _, err := eng.Run(params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)); err != nil {
			t.Fatal(err)
		}
		procs, _ := eng.AliveProcs()
		return eng.Metrics(), eng.Joined(), eng.Left(), counting.Outcomes(procs)
	}
	wantM, wantJ, wantL, wantO := run(1)
	if wantJ == 0 || wantL == 0 {
		t.Fatal("churn did not happen")
	}
	for _, w := range []int{3, 8} {
		gotM, gotJ, gotL, gotO := run(w)
		if gotJ != wantJ || gotL != wantL {
			t.Errorf("workers=%d: churn %d/%d != serial %d/%d", w, gotJ, gotL, wantJ, wantL)
		}
		if !reflect.DeepEqual(wantM, gotM) {
			t.Errorf("workers=%d: metrics diverge:\nserial:   %+v\nparallel: %+v", w, wantM, gotM)
		}
		if !reflect.DeepEqual(wantO, gotO) {
			t.Errorf("workers=%d: outcomes diverge", w)
		}
	}
}

// TestMixedChurnTurnsMembershipOver: under Churn.Mixed departures hit
// uniformly random nodes, so a long balanced run touches most of the
// slot table; the legacy derivation (pinned by E15's published tables)
// restarts the per-event streams and keeps recycling the same few
// slots. This pins both behaviors so neither regresses silently.
func TestMixedChurnTurnsMembershipOver(t *testing.T) {
	countDistinct := func(mixed bool) int {
		churn := Churn{Leaves: 2, Joins: 2, Mixed: mixed}
		net := mustNet(t, 64, 4, 17)
		joinSlots := map[Slot]int{}
		initial := true
		eng := mustRunner(t, net, churn, 18, func(slot Slot, id sim.NodeID) sim.Proc {
			if !initial {
				joinSlots[slot]++
			}
			return idleProc{}
		})
		initial = false
		if _, err := eng.Run(100); err != nil {
			t.Fatal(err)
		}
		if eng.Joined() != 200 {
			t.Fatalf("mixed=%v: joined %d, want 200", mixed, eng.Joined())
		}
		return len(joinSlots)
	}
	legacy := countDistinct(false)
	mixed := countDistinct(true)
	if legacy > 8 {
		t.Errorf("legacy churn touched %d distinct slots; the pinned degenerate behavior changed", legacy)
	}
	if mixed < 32 {
		t.Errorf("mixed churn touched only %d of 64 slots over 200 joins, want real turnover", mixed)
	}
}

// TestValidateErrorsNameNeighbors: a corrupted repair is reported with
// the offending slot's neighbor list in the message.
func TestValidateErrorsNameNeighbors(t *testing.T) {
	net := mustNet(t, 8, 4, 15)
	// Break cycle 0: point a successor somewhere its pred link disagrees.
	s := 0
	net.succ[0][s] = net.succ[0][net.succ[0][s]]
	err := net.Validate()
	if err == nil {
		t.Fatal("corrupted network validated")
	}
	if !strings.Contains(err.Error(), "neighbors [") {
		t.Errorf("error %q does not include the offending neighbor list", err)
	}
}
