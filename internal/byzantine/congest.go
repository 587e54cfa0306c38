package byzantine

import (
	"byzcount/internal/counting"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// This file implements the attacks against Algorithm 2 (the CONGEST
// counting protocol): beacon spam to inflate the estimate, silence to
// starve neighborhoods of beacons, path tampering to poison blacklists
// with honest IDs, and continue flooding to keep the network awake.

// BeaconSpammer fabricates a fresh beacon every iteration with a bogus
// origin and a fabricated path prefix, trying to convince good nodes that
// the network is larger than it is (the attack that the blacklisting of
// lines 20-32 is designed to stop: the spammer's true ID is appended by
// its honest neighbors, so it lands in the blacklistable prefix of every
// receiver beyond the trusted suffix).
type BeaconSpammer struct {
	Schedule counting.Schedule
	bound    counting.Schedule // the schedule locator caches phases of
	locator  counting.Locator
	// PrefixLen is the number of fabricated IDs prepended to each spam
	// beacon, mimicking an origin PrefixLen hops beyond the spammer.
	PrefixLen int
	// EveryRound, when set, spams every round of the beacon window rather
	// than once per iteration — crowding out honest beacons too.
	EveryRound bool
	rng        *xrand.Rand
}

var _ sim.Proc = (*BeaconSpammer)(nil)

// NewBeaconSpammer returns a spammer driven by the given schedule; the
// schedule must match the honest nodes' so spam lands inside beacon
// windows.
func NewBeaconSpammer(sched counting.Schedule, prefixLen int, everyRound bool, rng *xrand.Rand) *BeaconSpammer {
	return &BeaconSpammer{Schedule: sched, bound: sched, PrefixLen: prefixLen, EveryRound: everyRound, rng: rng}
}

// Halted is always false: the adversary never stops.
func (b *BeaconSpammer) Halted() bool { return false }

// Step emits fabricated beacons at iteration starts (or every beacon-
// window round when EveryRound is set).
func (b *BeaconSpammer) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	// Schedule is an exported field: a struct literal or a rewrite must
	// never run on a stale phase cache.
	if b.bound != b.Schedule {
		b.bound, b.locator = b.Schedule, counting.Locator{}
	}
	loc := b.locator.Locate(&b.Schedule, round)
	inBeaconWindow := loc.Offset <= loc.Phase+1
	if !inBeaconWindow {
		return nil
	}
	if !b.EveryRound && loc.Offset != 0 {
		return nil
	}
	prefix := make([]sim.NodeID, b.PrefixLen)
	for i := range prefix {
		prefix[i] = sim.NodeID(b.rng.Uint64())
	}
	origin := sim.NodeID(b.rng.Uint64())
	return env.Broadcast(counting.NewBeacon(origin, prefix))
}

// Silent drops everything and sends nothing: the starvation adversary.
// Honest nodes near a silent cluster receive fewer beacons and may decide
// early — the degradation Remark 1 shows is unavoidable for the o(n)
// nodes the adversary surrounds.
type Silent struct{}

var _ sim.Proc = Silent{}

// Step ignores all input and produces no output.
func (Silent) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing { return nil }

// Halted is always false; the node occupies its vertex forever.
func (Silent) Halted() bool { return false }

// ContinueFlooder broadcasts continue messages in every continue window,
// preventing decided honest nodes from ever exiting. It does not change
// what they decide — it burns rounds and messages, demonstrating that
// liveness of *termination* (not correctness) is what this attack
// touches.
type ContinueFlooder struct {
	Schedule counting.Schedule
}

var _ sim.Proc = ContinueFlooder{}

// Halted is always false.
func (ContinueFlooder) Halted() bool { return false }

// Step floods a continue at the start of every continue window.
func (c ContinueFlooder) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	loc := c.Schedule.Locate(round)
	if loc.Offset >= loc.Phase+2 && loc.Offset < 2*loc.Phase+4 {
		return env.Broadcast(counting.Continue{})
	}
	return nil
}
