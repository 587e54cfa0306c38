package dynamic

import (
	"errors"
	"fmt"

	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// Churn describes the per-round churn process: each round, Leaves random
// alive nodes depart and Joins new nodes arrive (after the round's
// messages have been delivered, matching the "topology changes between
// rounds" convention of the dynamic-network literature).
type Churn struct {
	Leaves int
	Joins  int
	// StopAfter, when positive, disables churn from that round on (so
	// runs can quiesce and protocols can terminate).
	StopAfter int
	// Mixed selects the well-mixed event randomness: the "leave" and
	// "join" streams are derived once and advance across events, so
	// departures hit uniformly random nodes and the membership really
	// turns over. The default (legacy) derivation restarts those
	// streams for every event — the behavior of the original churn
	// engine, which E15's published tables pin byte-for-byte — and is
	// degenerate under balanced churn: the restarted stream redraws the
	// same slot sequence while the LIFO free list hands back the slots
	// it just freed, so the same few nodes leave and rejoin round after
	// round. New workloads should set Mixed.
	Mixed bool
}

// ProcFactory builds the process for a newly joined (or initial) node.
type ProcFactory func(slot Slot, id sim.NodeID) sim.Proc

// Runner couples a Network to the unified round engine: the Network is
// the engine's Topology, and the churn process runs as the engine's
// between-rounds hook — Leave/Join repair the cycles, Detach/AttachAt
// retire and install processes on the recycled slots. There is no
// package-local round loop anymore: rounds execute on sim.Engine with
// everything that implies (deterministic sharded parallelism via
// SetParallelism, allocation-free steady state, CONGEST edge budgets,
// per-round traffic metrics).
//
// Determinism: all randomness is a pure function of seed. Initial IDs
// come from the engine's seed-derived ID stream, joiner IDs from the
// "joinids" sub-stream in join order, each departure re-derives the
// "leave" sub-stream and each arrival the "join" sub-stream (via
// xrand.SplitInto, so steady-state churn allocates nothing), and a slot
// recycled to a joiner resumes the slot's random stream where the
// departed node left it.
type Runner struct {
	net     *Network
	eng     *sim.Engine
	churn   Churn
	factory ProcFactory

	rng     *xrand.Rand
	joinIDs *xrand.Rand
	// leaveRng/joinRng drive the churn events: advancing streams under
	// Churn.Mixed, per-event reseeded scratch streams (xrand.SplitInto)
	// under the legacy derivation. Allocation-free either way.
	leaveRng, joinRng *xrand.Rand

	// onLeave, if non-nil, observes every departure (before the engine
	// detaches the slot) — the hook Byzantine rosters use to keep their
	// fraction accounting in step with the membership.
	onLeave func(slot Slot)

	joined, left int
}

// NewRunner builds the churn engine over net. factory is invoked for
// every initial node and every joiner.
func NewRunner(net *Network, churn Churn, seed uint64, factory ProcFactory) (*Runner, error) {
	if factory == nil {
		return nil, errors.New("dynamic: nil ProcFactory")
	}
	r := &Runner{
		net:     net,
		churn:   churn,
		factory: factory,
		rng:     xrand.New(seed),
		eng:     sim.New(net, sim.WithSeed(seed)),
	}
	r.joinIDs = r.rng.Split("joinids")
	r.leaveRng = r.rng.Split("leave")
	r.joinRng = r.rng.Split("join")
	procs := make([]sim.Proc, net.Slots())
	for s := range procs {
		if net.Alive(s) {
			procs[s] = factory(s, r.eng.ID(s))
		}
	}
	if err := r.eng.Attach(procs); err != nil {
		return nil, err
	}
	r.eng.SetBetweenRounds(r.apply)
	return r, nil
}

// Run executes up to maxRounds rounds on the unified engine, applying
// churn between rounds, and returns the number of rounds executed. The
// run ends early when every alive process has halted.
func (r *Runner) Run(maxRounds int) (int, error) { return r.eng.Run(maxRounds) }

// Engine exposes the underlying sim.Engine (e.g. for SetParallelism,
// SetEdgeCapacity, or SetStopCondition).
func (r *Runner) Engine() *sim.Engine { return r.eng }

// SetParallelism forwards to the engine; churn runs are bit-identical
// for every worker count, like every other workload.
func (r *Runner) SetParallelism(workers int) { r.eng.SetParallelism(workers) }

// SetDelayModel forwards to the engine: churn under virtual time means
// membership events still apply at tick boundaries while messages are
// in flight (a departure drops the slot's undelivered messages, exactly
// as the synchronous convention drops its next-round inbox).
func (r *Runner) SetDelayModel(m sim.DelayModel) { r.eng.SetDelayModel(m) }

// SetFaultModel forwards to the engine.
func (r *Runner) SetFaultModel(m sim.FaultModel) { r.eng.SetFaultModel(m) }

// SetLeaveHook registers a callback invoked for every departure, with
// the departing slot, before the engine detaches it. Arrivals need no
// counterpart: the ProcFactory already observes every join. Together
// they let scenario-level state (e.g. a byzantine.Roster maintaining an
// adversary fraction) follow the membership exactly.
func (r *Runner) SetLeaveHook(fn func(slot Slot)) { r.onLeave = fn }

// Metrics returns the engine's accumulated measurements.
func (r *Runner) Metrics() sim.Metrics { return r.eng.Metrics() }

// Proc returns the process at slot s (nil for dead slots).
func (r *Runner) Proc(s Slot) sim.Proc {
	if s < 0 || s >= r.eng.Slots() || !r.net.Alive(s) {
		return nil
	}
	return r.eng.Proc(s)
}

// AliveProcs returns the processes of currently alive slots, with their
// slots.
func (r *Runner) AliveProcs() (procs []sim.Proc, slots []Slot) {
	for s := 0; s < r.net.Slots(); s++ {
		if p := r.Proc(s); p != nil {
			procs = append(procs, p)
			slots = append(slots, s)
		}
	}
	return procs, slots
}

// Joined reports the number of arrivals so far.
func (r *Runner) Joined() int { return r.joined }

// Left reports the number of departures so far.
func (r *Runner) Left() int { return r.left }

// apply is the between-rounds hook: departures then arrivals. Under the
// legacy derivation the per-event streams are reseeded exactly as the
// engine this package used to carry derived them, so pre-unification
// runs reproduce byte-for-byte; under Churn.Mixed they simply advance.
func (r *Runner) apply(round int) error {
	if r.churn.StopAfter > 0 && round >= r.churn.StopAfter {
		return nil
	}
	for i := 0; i < r.churn.Leaves && r.net.NumAlive() > 3; i++ {
		if !r.churn.Mixed {
			r.leaveRng = r.rng.SplitInto("leave", r.leaveRng)
		}
		s := r.net.RandomAlive(r.leaveRng)
		if r.onLeave != nil {
			r.onLeave(s)
		}
		if err := r.net.Leave(s); err != nil {
			return fmt.Errorf("dynamic: leave: %w", err)
		}
		if err := r.eng.Detach(s); err != nil {
			return fmt.Errorf("dynamic: detach: %w", err)
		}
		r.left++
	}
	for i := 0; i < r.churn.Joins; i++ {
		if !r.churn.Mixed {
			r.joinRng = r.rng.SplitInto("join", r.joinRng)
		}
		s := r.net.Join(r.joinRng)
		id := sim.NodeID(r.joinIDs.ID())
		if err := r.eng.AttachAt(s, id, r.factory(s, id)); err != nil {
			return fmt.Errorf("dynamic: join: %w", err)
		}
		r.joined++
	}
	return nil
}
