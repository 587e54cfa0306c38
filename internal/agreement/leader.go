package agreement

import (
	"byzcount/internal/sim"
)

// This file implements almost-everywhere leader election, the other
// application named in Section 1 (the protocols of [4,31,32] all assume
// an estimate of log n). The scheme is the standard sampling+flooding
// one: every node self-nominates with probability ~ c / n-hat, where
// n-hat = d^L is derived from the counting estimate L, so Θ(c) candidates
// arise in expectation; candidates flood their IDs for Θ(L) rounds and
// every node adopts the maximum candidate ID it saw. With a correct
// estimate the flood covers the graph and almost all nodes agree.
//
// Against fully Byzantine nodes, max-ID election additionally needs the
// committee machinery of King et al. [32] (a Byzantine node can always
// nominate itself with a huge ID); the implementation here is the
// building block those protocols parameterize with log n, and the tests
// exercise it under crash faults, which it tolerates as-is.

// Nomination is a flooded leader candidacy.
type Nomination struct {
	Candidate sim.NodeID
}

// SizeBits counts the candidate ID.
func (Nomination) SizeBits() int { return 16 + 64 }

// LeaderParams configures the election.
type LeaderParams struct {
	// NHat is the network-size estimate d^L from counting.
	NHat float64
	// C is the expected number of candidates (default 4 when zero).
	C float64
	// FloodRounds is how long nominations are forwarded — Θ(L), at least
	// the diameter for full coverage.
	FloodRounds int
}

// LeaderFromEstimate derives election parameters from a counting estimate
// L on degree-d graphs: n-hat = d^L and flood length 2L+3.
func LeaderFromEstimate(logEstimate, d int) LeaderParams {
	if logEstimate < 1 {
		logEstimate = 1
	}
	nHat := 1.0
	for i := 0; i < logEstimate; i++ {
		nHat *= float64(d)
	}
	return LeaderParams{NHat: nHat, C: 4, FloodRounds: 2*logEstimate + 3}
}

// LeaderProc elects by max-candidate-ID flooding.
type LeaderProc struct {
	params LeaderParams

	leader    sim.NodeID
	hasLeader bool
	candidate bool
	done      bool
}

var _ sim.Proc = (*LeaderProc)(nil)

// NewLeaderProc returns an election process.
func NewLeaderProc(params LeaderParams) *LeaderProc {
	if params.C <= 0 {
		params.C = 4
	}
	if params.FloodRounds < 1 {
		params.FloodRounds = 1
	}
	return &LeaderProc{params: params}
}

// Leader returns the elected leader ID and whether one is known.
func (p *LeaderProc) Leader() (sim.NodeID, bool) { return p.leader, p.hasLeader }

// Halted reports completion of the flood window.
func (p *LeaderProc) Halted() bool { return p.done }

// Step self-nominates in round 0 and floods maximum candidacies.
func (p *LeaderProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if round > p.params.FloodRounds {
		p.done = true
		return nil
	}
	out := env.Scratch()
	if round == 0 {
		prob := p.params.C / p.params.NHat
		if env.Rand().Bernoulli(prob) {
			p.candidate = true
			p.leader = env.ID
			p.hasLeader = true
			out = env.AppendBroadcast(out, Nomination{Candidate: env.ID})
		}
		return out
	}
	improved := false
	for _, m := range in {
		nom, ok := m.Payload.(Nomination)
		if !ok {
			continue
		}
		if !p.hasLeader || nom.Candidate > p.leader {
			p.leader = nom.Candidate
			p.hasLeader = true
			improved = true
		}
	}
	if improved && round < p.params.FloodRounds {
		out = env.AppendBroadcast(out, Nomination{Candidate: p.leader})
	}
	if round == p.params.FloodRounds {
		p.done = true
	}
	return out
}

// LeaderAgreement returns the fraction of honest nodes that elected the
// most common leader, and that leader's ID.
func LeaderAgreement(procs []sim.Proc, honest []bool) (float64, sim.NodeID) {
	counts := make(map[sim.NodeID]int)
	total := 0
	for v, p := range procs {
		if honest != nil && !honest[v] {
			continue
		}
		lp, ok := p.(*LeaderProc)
		if !ok {
			continue
		}
		total++
		if id, ok := lp.Leader(); ok {
			counts[id]++
		}
	}
	if total == 0 {
		return 0, 0
	}
	var best sim.NodeID
	bestCount := 0
	for id, c := range counts {
		if c > bestCount {
			best, bestCount = id, c
		}
	}
	return float64(bestCount) / float64(total), best
}
