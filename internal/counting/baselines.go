package counting

import (
	"math"

	"byzcount/internal/sim"
)

// This file implements the baseline size-estimation protocols the paper
// motivates against (Section 1.2):
//
//   - GeometricProc: every node flips a fair coin until heads and floods
//     the maximum flip count; the global maximum is Θ(log n) whp. Exact
//     in the benign case, destroyed by a single Byzantine node that fakes
//     a huge value.
//   - SupportProc: support estimation via exponential minima ([7,5]):
//     every node draws k exponential variates and the network floods the
//     coordinate-wise minimum; n is estimated from the sum of minima.
//     Equally fragile: faking tiny minima inflates the estimate
//     arbitrarily.
//   - TreeCountProc: exact counting by BFS-tree convergecast from a root
//     — the "simply building a spanning tree" ground truth that requires
//     a benign network and a designated leader.

// GeoMax is the flooded payload of the geometric protocol.
type GeoMax struct {
	Value int
}

// SizeBits is a small constant: the value is O(log log n) bits whp, padded
// to a fixed field.
func (GeoMax) SizeBits() int { return 16 + 32 }

// GeometricProc floods the maximum geometric sample. After the value
// stabilizes for quietRounds rounds the node decides on the maximum seen,
// which is a (log2 n)-estimate in the benign case.
type GeometricProc struct {
	quietRounds int
	best        int
	quiet       int
	drawn       bool
	decided     bool
	decRound    int
}

var _ Estimator = (*GeometricProc)(nil)

// NewGeometricProc returns a process that decides after quietRounds
// rounds without improvement (use >= diameter for exactness; any
// Θ(log n) bound works at our scales).
func NewGeometricProc(quietRounds int) *GeometricProc {
	if quietRounds < 1 {
		quietRounds = 1
	}
	return &GeometricProc{quietRounds: quietRounds}
}

// Outcome reports the decided estimate (the maximum sample seen).
func (p *GeometricProc) Outcome() Outcome {
	return Outcome{Decided: p.decided, Estimate: p.best, Round: p.decRound, Exited: p.decided}
}

// Halted reports protocol termination.
func (p *GeometricProc) Halted() bool { return p.decided }

// Step floods improvements to the running maximum.
func (p *GeometricProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if !p.drawn {
		p.drawn = true
		p.best = env.Rand().Geometric()
		return env.Broadcast(GeoMax{Value: p.best})
	}
	improved := false
	for _, m := range in {
		if g, ok := m.Payload.(GeoMax); ok && g.Value > p.best {
			p.best = g.Value
			improved = true
		}
	}
	if improved {
		p.quiet = 0
		return env.Broadcast(GeoMax{Value: p.best})
	}
	p.quiet++
	if p.quiet >= p.quietRounds {
		p.decided = true
		p.decRound = round
	}
	return nil
}

// SupportMin is the flooded payload of the support-estimation protocol:
// the coordinate-wise minima of k exponential draws.
type SupportMin struct {
	Mins []float64
}

// SizeBits counts 64 bits per coordinate.
func (s SupportMin) SizeBits() int { return 16 + 64*len(s.Mins) }

// SupportProc implements support estimation. The decided Estimate is
// round(log2(n-hat)) where n-hat = (k-1)/sum(mins), making it directly
// comparable with the other protocols' log-scale estimates.
type SupportProc struct {
	k           int
	quietRounds int
	mins        []float64
	quiet       int
	drawn       bool
	decided     bool
	decRound    int
}

var _ Estimator = (*SupportProc)(nil)

// NewSupportProc returns a support-estimation process with k parallel
// exponential coordinates.
func NewSupportProc(k, quietRounds int) *SupportProc {
	if k < 2 {
		k = 2
	}
	if quietRounds < 1 {
		quietRounds = 1
	}
	return &SupportProc{k: k, quietRounds: quietRounds}
}

// EstimateN returns the size estimate (k-1)/sum(mins), the unbiased
// estimator of n from the minima of n-fold exponential samples.
func (p *SupportProc) EstimateN() float64 {
	sum := 0.0
	for _, m := range p.mins {
		sum += m
	}
	if sum <= 0 {
		return math.Inf(1)
	}
	return float64(p.k-1) / sum
}

// Outcome reports round(log2(n-hat)).
func (p *SupportProc) Outcome() Outcome {
	est := 0
	if n := p.EstimateN(); !math.IsInf(n, 1) && n >= 1 {
		est = int(math.Round(math.Log2(n)))
	}
	return Outcome{Decided: p.decided, Estimate: est, Round: p.decRound, Exited: p.decided}
}

// Halted reports protocol termination.
func (p *SupportProc) Halted() bool { return p.decided }

// Step floods coordinate-wise minima improvements.
func (p *SupportProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if !p.drawn {
		p.drawn = true
		p.mins = make([]float64, p.k)
		for i := range p.mins {
			p.mins[i] = env.Rand().Exponential(1)
		}
		return env.Broadcast(SupportMin{Mins: append([]float64(nil), p.mins...)})
	}
	improved := false
	for _, m := range in {
		s, ok := m.Payload.(SupportMin)
		if !ok || len(s.Mins) != p.k {
			continue
		}
		for i, x := range s.Mins {
			if x < p.mins[i] {
				p.mins[i] = x
				improved = true
			}
		}
	}
	if improved {
		p.quiet = 0
		return env.Broadcast(SupportMin{Mins: append([]float64(nil), p.mins...)})
	}
	p.quiet++
	if p.quiet >= p.quietRounds {
		p.decided = true
		p.decRound = round
	}
	return nil
}

// Tree-counting payloads.

// TreeJoin is flooded from the root to build the BFS tree; Depth is the
// sender's tree depth.
type TreeJoin struct{ Depth int }

// SizeBits is a constant-size header plus the depth field.
func (TreeJoin) SizeBits() int { return 16 + 32 }

// TreeParent announces which neighbor the sender chose as its parent.
type TreeParent struct{ Parent sim.NodeID }

// SizeBits counts the parent ID.
func (TreeParent) SizeBits() int { return 16 + 64 }

// TreeCount carries a subtree count up toward the root.
type TreeCount struct{ Count int }

// SizeBits is a constant-size header plus the count field.
func (TreeCount) SizeBits() int { return 16 + 32 }

// TreeTotal floods the final count down from the root.
type TreeTotal struct{ Total int }

// SizeBits is a constant-size header plus the total field.
func (TreeTotal) SizeBits() int { return 16 + 32 }

// TreeCountProc counts the network exactly by convergecast on a BFS tree
// rooted at the designated root vertex. It assumes no Byzantine nodes and
// an externally chosen leader — the two assumptions the paper shows are
// unavailable in its setting. The decided Estimate is the exact n.
type TreeCountProc struct {
	isRoot bool

	joined     bool
	depth      int
	parent     sim.NodeID
	hasParent  bool
	children   map[sim.NodeID]bool
	childCount map[sim.NodeID]int
	childDone  int
	sentCount  bool
	total      int
	decided    bool
	decRound   int
	// childDeadline is the round after which a node with no announced
	// children knows it is a leaf (parent announcements take two rounds
	// after the join wave passes).
	childDeadline int
}

var _ Estimator = (*TreeCountProc)(nil)

// NewTreeCountProc returns a tree-counting process; exactly one vertex in
// the network must be constructed with isRoot=true.
func NewTreeCountProc(isRoot bool) *TreeCountProc {
	return &TreeCountProc{
		isRoot:     isRoot,
		children:   make(map[sim.NodeID]bool),
		childCount: make(map[sim.NodeID]int),
	}
}

// Outcome reports the exact count (only meaningful once decided).
func (p *TreeCountProc) Outcome() Outcome {
	return Outcome{Decided: p.decided, Estimate: p.total, Round: p.decRound, Exited: p.decided}
}

// Halted reports whether the final total has been learned.
func (p *TreeCountProc) Halted() bool { return p.decided }

// Step implements the three waves: join flood, parent announcements +
// count convergecast, and total flood.
func (p *TreeCountProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	out := env.Scratch()

	if p.isRoot && !p.joined {
		p.joined = true
		p.depth = 0
		p.childDeadline = round + 2
		out = env.AppendBroadcast(out, TreeJoin{Depth: 0})
	}

	for _, m := range in {
		switch msg := m.Payload.(type) {
		case TreeJoin:
			if !p.joined {
				p.joined = true
				p.depth = msg.Depth + 1
				p.parent = m.FromID
				p.hasParent = true
				p.childDeadline = round + 2
				out = env.AppendBroadcast(out, TreeJoin{Depth: p.depth})
				out = env.AppendBroadcast(out, TreeParent{Parent: m.FromID})
			}
		case TreeParent:
			if msg.Parent == env.ID {
				p.children[m.FromID] = true
			}
		case TreeCount:
			if p.children[m.FromID] {
				p.childCount[m.FromID] = msg.Count
			}
		case TreeTotal:
			if !p.decided {
				p.total = msg.Total
				p.decided = true
				p.decRound = round
				out = env.AppendBroadcast(out, msg)
			}
		}
	}

	// Convergecast: once all children reported (or the deadline passed
	// with no children), send the subtree count to the parent.
	if p.joined && !p.sentCount && round >= p.childDeadline && len(p.childCount) == len(p.children) {
		sum := 1
		for _, c := range p.childCount {
			sum += c
		}
		p.sentCount = true
		if p.hasParent {
			// Unicast to the parent: find its vertex among neighbors.
			for k, w := range env.Neighbors {
				if env.NeighborID(k) == p.parent {
					out = append(out, sim.Outgoing{To: w, Payload: TreeCount{Count: sum}})
					break
				}
			}
		} else if p.isRoot && !p.decided {
			p.total = sum
			p.decided = true
			p.decRound = round
			out = env.AppendBroadcast(out, TreeTotal{Total: sum})
		}
	}
	return out
}
