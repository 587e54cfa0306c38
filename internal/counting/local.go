package counting

import (
	"byzcount/internal/sim"
)

// LocalParams configures Algorithm 1 (the deterministic LOCAL-model
// counting algorithm of Section 4).
type LocalParams struct {
	// MaxDegree is the globally known degree bound Delta of Theorem 1.
	MaxDegree int
	// Alpha is the expansion threshold alpha' of line 11 — a lower bound
	// on the network's vertex expansion known to all nodes (Section 1.3).
	Alpha float64
	// EnableSweep turns on the spectral sweep check (see View.SweepCheck)
	// that defends against consistent fake-network injection. The cheap
	// checks already handle inconsistency, muteness, and saturation.
	EnableSweep bool
	// SweepMinRound delays the sweep until views are large enough to
	// carry a spectral signal (default 3 when zero).
	SweepMinRound int
	// SweepIters is the power-iteration count (default 40 when zero).
	SweepIters int
	// MaxRounds forces a decision as a simulation safety net; 0 disables.
	MaxRounds int
}

// DefaultLocalParams returns the parameter set used in the experiments
// for a network of maximum degree d.
func DefaultLocalParams(d int) LocalParams {
	return LocalParams{
		MaxDegree:     d,
		Alpha:         0.2,
		EnableSweep:   true,
		SweepMinRound: 3,
		SweepIters:    40,
		MaxRounds:     64,
	}
}

// LocalProc is the per-node process of Algorithm 1. Each round it
// broadcasts the topology information it learned in the previous round
// (a delta encoding of the paper's "broadcast B-hat(u,i)"), merges what
// its neighbors sent, and decides the moment it sees an inconsistency, a
// mute neighbor, or an expansion-check failure.
type LocalProc struct {
	params LocalParams

	view     *View
	outbox   []SealRecord // seals learned since the last broadcast
	decided  bool
	estimate int
	decRound int

	// seenScratch and nbrScratch are the reusable distinct-count buffers
	// of the mute check — degrees are bounded by Delta, so linear scans
	// over reused slices replace the two maps the seed code allocated
	// every round. The distinct-neighbor count is recomputed each round
	// (not cached): under a mutable topology env.Neighbors is refreshed
	// as the membership churns, and the mute check must track it.
	seenScratch []int
	nbrScratch  []int
}

var _ Estimator = (*LocalProc)(nil)

// NewLocalProc returns a fresh Algorithm 1 process.
func NewLocalProc(params LocalParams) *LocalProc {
	if params.SweepMinRound == 0 {
		params.SweepMinRound = 3
	}
	if params.SweepIters == 0 {
		params.SweepIters = 40
	}
	return &LocalProc{
		params: params,
		view:   NewView(params.MaxDegree),
	}
}

// Outcome reports the node's decision.
func (l *LocalProc) Outcome() Outcome {
	return Outcome{Decided: l.decided, Estimate: l.estimate, Round: l.decRound, Exited: l.decided}
}

// Halted reports whether the node decided; a decided node terminates and
// goes mute, which is exactly how its neighbors learn about the decision
// (line 5's "some neighbor is mute").
func (l *LocalProc) Halted() bool { return l.decided }

// Step advances one synchronous round.
func (l *LocalProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if l.decided {
		return nil
	}
	if round == 0 {
		// Round 1 of the paper: B-hat(u,1) is the inclusive neighborhood.
		// Parallel edges collapse to one topological edge in the seal.
		uniq := make(map[sim.NodeID]bool, len(env.Neighbors))
		nbrs := make([]sim.NodeID, 0, len(env.Neighbors))
		for k := range env.Neighbors {
			if id := env.NeighborID(k); !uniq[id] {
				uniq[id] = true
				nbrs = append(nbrs, id)
			}
		}
		self := SealRecord{Node: env.ID, Neighbors: nbrs}
		if err := l.view.Merge(self); err != nil {
			// Cannot happen for a well-formed environment, but a parallel
			// edge in the underlying multigraph would trip the degree
			// rules; decide defensively rather than panic.
			l.decide(round)
			return nil
		}
		l.outbox = append(l.outbox, self)
		return l.flush(env)
	}

	// Mute check (line 5): every live neighbor broadcast last round.
	if cap(l.nbrScratch) < len(env.Neighbors) {
		l.nbrScratch = make([]int, 0, len(env.Neighbors))
	}
	distinct := countDistinct(l.nbrScratch[:0], env.Neighbors)
	seen := l.seenScratch[:0]
	for _, m := range in {
		if !containsInt(seen, m.From) {
			seen = append(seen, m.From)
		}
	}
	l.seenScratch = seen[:0]
	if len(seen) < distinct {
		l.decide(round)
		return nil
	}

	// Merge received topology information (line 8), deciding on any
	// inconsistency (line 6).
	for _, m := range in {
		delta, ok := m.Payload.(LocalDelta)
		if !ok {
			// A malformed payload is inconsistent information.
			l.decide(round)
			return nil
		}
		for _, rec := range delta.Seals {
			wasSealed := l.view.IsSealed(rec.Node)
			if err := l.view.Merge(rec); err != nil {
				l.decide(round)
				return nil
			}
			if !wasSealed && l.view.IsSealed(rec.Node) {
				l.outbox = append(l.outbox, rec)
			}
		}
	}

	// Expansion checks (lines 9-13) over the tractable candidate family.
	if !l.view.ExpansionChecks(env.ID, l.params.Alpha) {
		l.decide(round)
		return nil
	}
	if l.params.EnableSweep && round >= l.params.SweepMinRound {
		if !l.view.SweepCheck(l.params.Alpha, l.params.SweepIters, env.Rand()) {
			l.decide(round)
			return nil
		}
	}
	if l.params.MaxRounds > 0 && round >= l.params.MaxRounds {
		l.decide(round)
		return nil
	}
	return l.flush(env)
}

func (l *LocalProc) decide(round int) {
	l.decided = true
	l.estimate = round
	l.decRound = round
}

// containsInt reports whether x appears in the (short, degree-bounded)
// slice s.
func containsInt(s []int, x int) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

// countDistinct returns the number of distinct values in s, using buf as
// scratch.
func countDistinct(buf []int, s []int) int {
	for _, x := range s {
		if !containsInt(buf, x) {
			buf = append(buf, x)
		}
	}
	return len(buf)
}

// flush broadcasts the seals learned since the previous round. An empty
// delta is still sent: it is the heartbeat that distinguishes a live
// neighbor from a mute (decided or Byzantine) one.
func (l *LocalProc) flush(env *sim.Env) []sim.Outgoing {
	delta := LocalDelta{Seals: l.outbox}
	l.outbox = nil
	return env.Broadcast(delta)
}
