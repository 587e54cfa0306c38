package byzantine

import "byzcount/internal/sim"

// Crash wraps any process and fail-stops it at a given round: the node
// behaves correctly until CrashRound, then goes permanently silent while
// still occupying its vertex. Crash faults are strictly weaker than
// Byzantine ones, so every guarantee of the paper's algorithms must hold
// under them a fortiori; the failure-injection tests use this to check
// that the implementations do not quietly depend on every correct node
// staying alive (e.g. for forwarding beacons or continues).
type Crash struct {
	Inner      sim.Proc
	CrashRound int

	crashed bool
}

var _ sim.Proc = (*Crash)(nil)

// NewCrash returns a process that runs inner until crashRound.
func NewCrash(inner sim.Proc, crashRound int) *Crash {
	return &Crash{Inner: inner, CrashRound: crashRound}
}

// Halted is false even after the crash: a crashed node is silent, not
// absent, so neighbors cannot distinguish it from a slow one — matching
// the fail-stop model.
func (c *Crash) Halted() bool { return false }

// Step delegates to the inner process until the crash round.
func (c *Crash) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if c.crashed || round >= c.CrashRound {
		c.crashed = true
		return nil
	}
	if c.Inner.Halted() {
		return nil
	}
	return c.Inner.Step(env, round, in)
}
