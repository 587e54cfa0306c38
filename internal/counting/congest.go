package counting

import (
	"byzcount/internal/sim"
)

// Beacon is the beacon message of Algorithm 2: an origin ID plus the path
// field listing the forwarders the message visited. Honest receivers
// append the engine-stamped sender ID before forwarding, so the suffix of
// the path written by honest nodes is always truthful; only prefixes that
// passed through Byzantine nodes can be bogus (Section 5, "Beacon
// Messages and Path Fields").
//
// A beacon travels as a *Beacon and its path is a shared-prefix chain:
// each Beacon holds the path's last ID and points at the beacon it
// extends, down to a root with an empty path that holds the origin, so
// an honest forward is one 16-byte node instead of a copy of the path.
// A node stores no path length: the walks below stop at the root, and
// every chain is finite because Beacons are immutable once built — every
// receiver of a broadcast reads the same chain — and only NewBeacon, an
// origin's newRootBeacon and the honest forward build them.
type Beacon struct {
	prev *Beacon    // the beacon this one extends; nil at the root
	id   sim.NodeID // the path's last ID, or the origin at the root
}

// NewBeacon returns a beacon from origin carrying a copy of path, built
// with one allocation. Honest forwards extend a received beacon instead.
func NewBeacon(origin sim.NodeID, path []sim.NodeID) *Beacon {
	chain := make([]Beacon, len(path)+1)
	chain[0] = Beacon{id: origin}
	for k, id := range path {
		chain[k+1] = Beacon{prev: &chain[k], id: id}
	}
	return &chain[len(path)]
}

// newRootBeacon returns the empty-path beacon an origin sends.
func newRootBeacon(origin sim.NodeID) *Beacon { return &Beacon{id: origin} }

// extend returns the beacon that forwards b with id appended to its path
// (line 16), sharing b's path instead of copying it.
func (b *Beacon) extend(id sim.NodeID) *Beacon {
	return &Beacon{prev: b, id: id}
}

// pathLen returns the number of IDs in the path field.
func (b *Beacon) pathLen() int {
	n := 0
	for ; b.prev != nil; b = b.prev {
		n++
	}
	return n
}

// Origin returns the ID the beacon claims to originate from, read at the
// chain's root.
func (b *Beacon) Origin() sim.NodeID {
	for b.prev != nil {
		b = b.prev
	}
	return b.id
}

// AppendPath appends the path field, first forwarder first, to dst and
// returns the extended slice.
func (b *Beacon) AppendPath(dst []sim.NodeID) []sim.NodeID {
	n := b.pathLen()
	dst = append(dst, make([]sim.NodeID, n)...)
	for k := len(dst) - 1; b.prev != nil; k-- {
		dst[k] = b.id
		b = b.prev
	}
	return dst
}

// untrusted returns the chain node ending the path prefix that lies
// outside the trusted suffix of the last suffix IDs (lines 20 and 31),
// or the root when the suffix covers the whole path. Walking prev from
// it until the root visits that prefix, last ID first.
func (b *Beacon) untrusted(suffix int) *Beacon {
	for ; suffix > 0 && b.prev != nil; suffix-- {
		b = b.prev
	}
	return b
}

// SizeBits counts the origin, the path IDs, and a small tag. A beacon is
// a "small-sized message" as long as its path stays O(log n) long.
func (b *Beacon) SizeBits() int { return 16 + 64 + 64*b.pathLen() }

// Continue is the keep-going signal broadcast by undecided nodes at the
// end of each iteration and forwarded for i+3 rounds (line 35).
type Continue struct{}

// SizeBits is the constant tag size of a continue message.
func (Continue) SizeBits() int { return 16 }

// CongestParams configures Algorithm 2.
type CongestParams struct {
	// Schedule fixes the phase structure (start phase c, gamma).
	Schedule Schedule
	// C1 is the activation constant of line 5.
	C1 float64
	// Epsilon is the blacklist-suffix parameter of equation (3); see
	// DeriveEpsilon.
	Epsilon float64
	// MaxPhase forces a decision once the phase counter exceeds it — a
	// safety net for adversaries that would otherwise inflate the phase
	// counter without bound in a finite simulation. 0 disables it.
	MaxPhase int
	// DisableBlacklist turns off lines 20-21 and 31-32 for the E7
	// ablation: shortestPath accepts any beacon and nothing is ever
	// blacklisted.
	DisableBlacklist bool
	// UpdateOnReentry, when set, lets a decided node that is reactivated
	// by continue messages raise its recorded estimate to the phase at
	// which it finally exits (one reading of line 44). The default keeps
	// the first decision, matching the irrevocability of Definition 2.
	UpdateOnReentry bool
}

// DefaultCongestParams returns the parameter set used across the
// experiments: gamma = 0.55 (so tolerated Byzantine count is n^0.45,
// consistent with B(n) = n^(1/2-xi)), delta = 0.1, c = 2, c1 = 4.
func DefaultCongestParams(d int) CongestParams {
	gamma := 0.55
	return CongestParams{
		Schedule: Schedule{StartPhase: 2, Gamma: gamma},
		C1:       4,
		Epsilon:  DeriveEpsilon(gamma, 0.1, d),
		MaxPhase: 30,
	}
}

// CongestProc is the per-node process of Algorithm 2. Create one with
// NewCongestProc, or a run's worth in one allocation with
// NewCongestProcs. Every proc of a run points at the run's one
// read-only CongestParams, so a proc holds only its own state and fits
// in 96 bytes. Phases and set sizes are held in 32 bits: each phase
// lasts at least 2i+5 rounds, so a run reaches phase 2^31 only after
// more rounds than it could step. Round numbers stay int.
type CongestProc struct {
	params *CongestParams
	phases Locator // Locate cache over params.Schedule

	decRound int

	blacklist idSet

	// sp is shortestPath (line 4): the beacon this node accepted in the
	// current iteration, nil until it accepts one.
	sp *Beacon

	estimate  int32
	lastPhase int32 // phase of the previous step, to reset blacklists
	// suffix is BlacklistSuffix(lastPhase, params.Epsilon), set when
	// the phase begins.
	suffix int32

	decided           bool
	exited            bool
	receivedContinue  bool
	forwardedContinue bool
}

var _ Estimator = (*CongestProc)(nil)

// NewCongestProc returns a fresh process with the given parameters. The
// process and its copy of params share one allocation.
func NewCongestProc(params CongestParams) *CongestProc {
	own := &struct {
		proc   CongestProc
		params CongestParams
	}{params: params}
	own.proc.init(&own.params)
	return &own.proc
}

// NewCongestProcs returns n fresh processes in one allocation, all
// pointing at params, which must not change while they run.
func NewCongestProcs(params *CongestParams, n int) []CongestProc {
	procs := make([]CongestProc, n)
	for i := range procs {
		procs[i].init(params)
	}
	return procs
}

// init readies a zero proc to run under params.
func (c *CongestProc) init(params *CongestParams) {
	c.params = params
	c.lastPhase = -1
}

// Outcome reports the node's decision state.
func (c *CongestProc) Outcome() Outcome {
	return Outcome{Decided: c.decided, Estimate: int(c.estimate), Round: c.decRound, Exited: c.exited}
}

// Halted reports whether the node exited the protocol for good.
func (c *CongestProc) Halted() bool { return c.exited }

// Step advances the node by one synchronous round.
func (c *CongestProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	loc := c.phases.Locate(&c.params.Schedule, round)
	i := loc.Phase

	// Phase transition: reset the phase blacklist (line 2) and fix the
	// phase's trusted suffix (line 20).
	if i != int(c.lastPhase) {
		c.lastPhase = int32(i)
		c.suffix = int32(BlacklistSuffix(i, c.params.Epsilon))
		c.blacklist.reset()
	}
	suffix := int(c.suffix)
	// Iteration start: reset shortestPath (line 4).
	if loc.Offset == 0 {
		c.sp = nil
	}

	// out is the env's reusable scratch buffer: building the round's
	// output appends into it and allocates nothing once warm.
	out := env.Scratch()

	beaconWindowEnd := i + 2 // offsets 0..i+1 send beacons; receipt through i+2

	switch {
	case loc.Offset == 0:
		// Line 5: become active with probability c1*i/d^i.
		if c.params.MaxPhase > 0 && i > c.params.MaxPhase && !c.decided {
			c.decide(i, round)
			break
		}
		p := ActivationProbability(c.params.C1, i, env.Degree)
		if env.Rand().Bernoulli(p) {
			// An origin's shortestPath is itself alone, which the
			// trusted suffix (at least one ID) always covers, so the
			// empty-path beacon it sends stands in for it.
			c.sp = newRootBeacon(env.ID)
			out = env.AppendBroadcast(out, c.sp)
		}

	case loc.Offset <= beaconWindowEnd:
		// Beacon receive window. Pick one beacon (line 14), append the
		// true sender ID (line 16), maybe accept it (lines 20-25), and
		// forward it while transmission is still allowed (lines 17-19).
		// The forward is built only when it is sent or kept: the trusted
		// suffix (at least one ID) always covers the appended sender, so
		// the forward is acceptable at suffix exactly when the received
		// beacon is at suffix-1.
		if b, fromID, ok := firstBeacon(in); ok {
			send := loc.Offset <= i+1
			accept := c.sp == nil && c.acceptable(b, suffix-1)
			if send || accept {
				fwd := b.extend(fromID)
				if send {
					out = env.AppendBroadcast(out, fwd)
				}
				if accept {
					c.sp = fwd
				}
			}
		}
		if loc.Offset == beaconWindowEnd {
			// Decision point (lines 28-30) and blacklist update (31-32).
			if !c.decided && c.sp == nil {
				c.decide(i, round)
			}
			if c.sp != nil && !c.params.DisableBlacklist {
				c.blacklistUntrusted(c.sp, suffix)
			}
			// Continue window starts now: undecided nodes broadcast
			// continue (lines 34-36).
			c.receivedContinue = false
			c.forwardedContinue = false
			if !c.decided {
				out = env.AppendBroadcast(out, Continue{})
			}
		}

	default:
		// Continue window: offsets i+3 .. 2i+4.
		if hasContinue(in) {
			c.receivedContinue = true
			if !c.forwardedContinue && loc.Offset < 2*i+4 {
				c.forwardedContinue = true
				out = env.AppendBroadcast(out, Continue{})
			}
		}
		if loc.Offset == 2*i+4 {
			// End of iteration: a decided node that saw no continue exits
			// (lines 38-39); one that did stays in and, optionally,
			// updates its recorded value (line 44).
			if c.decided {
				if !c.receivedContinue {
					c.exited = true
					if c.params.UpdateOnReentry && i > int(c.estimate) {
						c.estimate = int32(i)
					}
				}
			}
		}
	}
	return out
}

func (c *CongestProc) decide(i, round int) {
	c.decided = true
	c.estimate = int32(i)
	c.decRound = round
}

// acceptable implements the blacklist filter of lines 20-21: the path is
// accepted when the part outside the trusted suffix is disjoint from the
// blacklist.
func (c *CongestProc) acceptable(b *Beacon, suffix int) bool {
	if c.params.DisableBlacklist {
		return true
	}
	for p := b.untrusted(suffix); p.prev != nil; p = p.prev {
		if c.blacklist.has(p.id) {
			return false
		}
	}
	return true
}

// blacklistUntrusted implements lines 31-32: every ID of b's path
// outside the trusted suffix joins the phase blacklist.
func (c *CongestProc) blacklistUntrusted(b *Beacon, suffix int) {
	for p := b.untrusted(suffix); p.prev != nil; p = p.prev {
		c.blacklist.add(p.id)
	}
}

// firstBeacon returns the first beacon in the inbox, matching line 14's
// "discards all but one arbitrarily chosen message". The engine delivers
// in deterministic vertex order, so runs stay reproducible.
func firstBeacon(in []sim.Incoming) (*Beacon, sim.NodeID, bool) {
	for _, m := range in {
		if b, ok := m.Payload.(*Beacon); ok {
			return b, m.FromID, true
		}
	}
	return nil, 0, false
}

func hasContinue(in []sim.Incoming) bool {
	for _, m := range in {
		if _, ok := m.Payload.(Continue); ok {
			return true
		}
	}
	return false
}
