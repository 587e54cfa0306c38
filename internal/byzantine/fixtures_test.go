package byzantine

// Attack and placement fixtures that only the tests drive: the
// path-tampering CONGEST adversary, two LOCAL adversaries that the
// consistency and degree checks of Algorithm 1 catch at once, and a
// hand-picked placement. No experiment uses them; the attack tests keep
// them to show each detection path still fires.

import (
	"fmt"

	"byzcount/internal/counting"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// PathTamperer forwards honest beacons but rewrites the path prefix to
// contain the IDs of innocent honest nodes (its frame targets), trying to
// get them blacklisted so that later honest beacons are rejected and good
// nodes decide early.
type PathTamperer struct {
	Schedule counting.Schedule
	// Frame is the pool of honest IDs to implant into path prefixes.
	Frame []sim.NodeID
	rng   *xrand.Rand
}

var _ sim.Proc = (*PathTamperer)(nil)

// NewPathTamperer returns a tamperer that frames the given IDs.
func NewPathTamperer(sched counting.Schedule, frame []sim.NodeID, rng *xrand.Rand) *PathTamperer {
	return &PathTamperer{Schedule: sched, Frame: frame, rng: rng}
}

// Halted is always false.
func (p *PathTamperer) Halted() bool { return false }

// Step rewrites and forwards one received beacon per round.
func (p *PathTamperer) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	loc := p.Schedule.Locate(round)
	if loc.Offset > loc.Phase+1 {
		return nil
	}
	for _, m := range in {
		if bc, ok := m.Payload.(*counting.Beacon); ok {
			// Replace the prefix with framed IDs, keep length plausible.
			k := max(len(bc.AppendPath(nil)), 1)
			tampered := make([]sim.NodeID, 0, k)
			for i := 0; i < k; i++ {
				if len(p.Frame) > 0 {
					tampered = append(tampered, p.Frame[p.rng.Intn(len(p.Frame))])
				}
			}
			return env.Broadcast(counting.NewBeacon(bc.Origin(), tampered))
		}
	}
	return nil
}

// SplitBrainLocal equivocates: it partitions its neighbors into two
// groups and seals itself differently toward each (each version padded
// with a different fabricated extra neighbor). Honest forwarding brings
// the two versions together within a couple of rounds and the reseal
// check of View.Merge fires — the detection path of line 18.
type SplitBrainLocal struct {
	rng *xrand.Rand
}

var _ sim.Proc = (*SplitBrainLocal)(nil)

// NewSplitBrainLocal returns an equivocating adversary.
func NewSplitBrainLocal(rng *xrand.Rand) *SplitBrainLocal {
	return &SplitBrainLocal{rng: rng}
}

// Halted is always false.
func (s *SplitBrainLocal) Halted() bool { return false }

// Step sends version A of its seal to even-indexed neighbors and version
// B to odd-indexed ones, then heartbeats.
func (s *SplitBrainLocal) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if round > 0 {
		return env.Broadcast(counting.LocalDelta{})
	}
	uniq := make(map[sim.NodeID]bool, len(env.Neighbors))
	base := make([]sim.NodeID, 0, len(env.Neighbors)+1)
	for k := range env.Neighbors {
		if id := env.NeighborID(k); !uniq[id] {
			uniq[id] = true
			base = append(base, id)
		}
	}
	sealA := counting.SealRecord{Node: env.ID, Neighbors: append(append([]sim.NodeID(nil), base...), sim.NodeID(s.rng.Uint64()))}
	sealB := counting.SealRecord{Node: env.ID, Neighbors: append(append([]sim.NodeID(nil), base...), sim.NodeID(s.rng.Uint64()))}
	out := env.Scratch()
	for k, w := range env.Neighbors {
		seal := sealA
		if k%2 == 1 {
			seal = sealB
		}
		out = append(out, sim.Outgoing{To: w, Payload: counting.LocalDelta{Seals: []counting.SealRecord{seal}}})
	}
	return out
}

// DegreeLiarLocal claims more neighbors than the degree bound allows —
// the crudest fabrication, detected instantly by line 17.
type DegreeLiarLocal struct {
	Extra int
	rng   *xrand.Rand
	sent  bool
}

var _ sim.Proc = (*DegreeLiarLocal)(nil)

// NewDegreeLiarLocal returns a liar that pads its seal with extra
// fabricated neighbors.
func NewDegreeLiarLocal(extra int, rng *xrand.Rand) *DegreeLiarLocal {
	return &DegreeLiarLocal{Extra: extra, rng: rng}
}

// Halted is always false.
func (d *DegreeLiarLocal) Halted() bool { return false }

// Step broadcasts the inflated seal once, then heartbeats.
func (d *DegreeLiarLocal) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if d.sent {
		return env.Broadcast(counting.LocalDelta{})
	}
	d.sent = true
	nbrs := make([]sim.NodeID, len(env.Neighbors), len(env.Neighbors)+d.Extra)
	for k := range nbrs {
		nbrs[k] = env.NeighborID(k)
	}
	for i := 0; i < d.Extra; i++ {
		nbrs = append(nbrs, sim.NodeID(d.rng.Uint64()))
	}
	return env.Broadcast(counting.LocalDelta{
		Seals: []counting.SealRecord{{Node: env.ID, Neighbors: nbrs}},
	})
}

// FixedPlacement marks exactly the given slots, rejecting duplicates and
// slots out of range or not alive.
func FixedPlacement(vertices ...int) Placement {
	return func(s Substrate, count int, rng *xrand.Rand) ([]bool, error) {
		if count != len(vertices) {
			return nil, fmt.Errorf("byzantine: FixedPlacement has %d vertices, asked for %d", len(vertices), count)
		}
		mask := make([]bool, s.Slots())
		for _, v := range vertices {
			if v < 0 || v >= s.Slots() {
				return nil, fmt.Errorf("byzantine: vertex %d out of range", v)
			}
			if !s.Alive(v) {
				return nil, fmt.Errorf("byzantine: vertex %d is not alive", v)
			}
			if mask[v] {
				return nil, fmt.Errorf("byzantine: vertex %d listed twice", v)
			}
			mask[v] = true
		}
		return mask, nil
	}
}
