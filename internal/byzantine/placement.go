// Package byzantine provides the adversary side of the reproduction:
// placement strategies that decide WHERE the Byzantine nodes sit
// (Section 2's "arbitrarily (adversarially) placed"), and behaviour
// strategies that decide WHAT they do — beacon spam, path tampering,
// silence, topology fabrication, and the value-faking attacks that break
// the baseline protocols of Section 1.2.
//
// Every strategy is a sim.Proc; the engine stamps true sender IDs, so
// none of them can fake its identity over an edge, matching the model.
//
// Placements target the Substrate abstraction rather than a concrete
// graph, so the same adversary composes with static substrates
// (graph.Graph) and churning ones (dynamic.Network); under membership
// turnover a Roster re-evaluates the Byzantine fraction as joiners
// arrive.
package byzantine

import (
	"fmt"

	"byzcount/internal/xrand"
)

// Substrate is the placement-level view of a network: a dense slot
// space, an aliveness mask, and per-slot adjacency. Both *graph.Graph
// (every slot alive, forever) and *dynamic.Network (slots churn)
// satisfy it — the methods are the structural subset of sim.Topology
// that placements need, so any future topology the engine can run is
// automatically placeable too.
type Substrate interface {
	// Slots is the size of the vertex index space, alive or not.
	Slots() int
	// Alive reports whether slot v currently hosts a node.
	Alive(v int) bool
	// AppendNeighbors appends v's neighbor multiset to buf and returns
	// the extended slice (dead slots append nothing).
	AppendNeighbors(v int, buf []int) []int
}

// unreachable marks slots a substrate BFS never reached (dead slots
// included); it matches graph.Unreachable so distance semantics are
// interchangeable.
const unreachable = -1

// aliveCount returns the number of alive slots.
func aliveCount(s Substrate) int {
	n := 0
	for v := 0; v < s.Slots(); v++ {
		if s.Alive(v) {
			n++
		}
	}
	return n
}

// randomAliveSlot draws a uniformly random alive slot by rejection —
// the same draw sequence dynamic.Network.RandomAlive performs, and a
// single Intn on a fully alive (static) substrate.
func randomAliveSlot(s Substrate, rng *xrand.Rand) int {
	for {
		v := rng.Intn(s.Slots())
		if s.Alive(v) {
			return v
		}
	}
}

// substrateBFS returns the distance from src to every alive slot, with
// unreachable (-1) for dead slots and other components. Neighbors are
// expanded in adjacency order, so on a static graph the visit order is
// exactly graph.BFS's.
func substrateBFS(s Substrate, src int) []int {
	n := s.Slots()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = unreachable
	}
	dist[src] = 0
	queue := make([]int, 1, n)
	queue[0] = src
	var nbrs []int
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		nbrs = s.AppendNeighbors(u, nbrs[:0])
		for _, w := range nbrs {
			if dist[w] == unreachable {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// substrateBall returns every slot reachable from src in BFS order (src
// first) — the unbounded-radius counterpart of graph.Ball, with the
// identical visit order on static graphs.
func substrateBall(s Substrate, src int) []int {
	n := s.Slots()
	seen := make([]bool, n)
	seen[src] = true
	queue := make([]int, 1, n)
	queue[0] = src
	var nbrs []int
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		nbrs = s.AppendNeighbors(u, nbrs[:0])
		for _, w := range nbrs {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// Placement selects which slots are Byzantine. It returns a mask over
// the substrate's slot space with `count` true entries among the alive
// slots (or an error when count is infeasible; a clustered placement on
// a disconnected substrate may mark fewer).
type Placement func(s Substrate, count int, rng *xrand.Rand) ([]bool, error)

// checkCount validates a placement budget against the alive population
// and returns that population.
func checkCount(s Substrate, count int) (int, error) {
	n := aliveCount(s)
	if count < 0 || count > n {
		return 0, fmt.Errorf("byzantine: cannot place %d nodes in %d vertices", count, n)
	}
	return n, nil
}

// RandomPlacement scatters the Byzantine nodes uniformly over the alive
// slots — the weaker adversary assumed by the prior work of Chatterjee
// et al. [14].
func RandomPlacement(s Substrate, count int, rng *xrand.Rand) ([]bool, error) {
	n, err := checkCount(s, count)
	if err != nil {
		return nil, err
	}
	slots := s.Slots()
	mask := make([]bool, slots)
	if n == slots {
		// Fully alive (the static fast path): sample slot indices
		// directly — the exact draw sequence of the static-graph days,
		// which the published tables pin.
		for _, v := range rng.Sample(slots, count) {
			mask[v] = true
		}
		return mask, nil
	}
	alive := make([]int, 0, n)
	for v := 0; v < slots; v++ {
		if s.Alive(v) {
			alive = append(alive, v)
		}
	}
	for _, i := range rng.Sample(n, count) {
		mask[alive[i]] = true
	}
	return mask, nil
}

// ClusteredPlacement packs the Byzantine nodes into a BFS ball around a
// random alive center — the worst-case concentration of Remark 1, where
// the adversary surrounds a region and controls its termination.
func ClusteredPlacement(s Substrate, count int, rng *xrand.Rand) ([]bool, error) {
	if _, err := checkCount(s, count); err != nil {
		return nil, err
	}
	mask := make([]bool, s.Slots())
	if count == 0 {
		return mask, nil
	}
	center := randomAliveSlot(s, rng)
	// Take the `count` closest slots to the center in BFS order.
	ball := substrateBall(s, center)
	for i := 0; i < count && i < len(ball); i++ {
		mask[ball[i]] = true
	}
	return mask, nil
}

// SpreadPlacement greedily maximizes pairwise distance: each new
// Byzantine node is the alive slot farthest from all previously chosen
// ones. This maximizes the fraction of honest nodes with a nearby
// Byzantine neighbor — the adversary that erodes the Good set of
// Lemma 1 fastest.
func SpreadPlacement(s Substrate, count int, rng *xrand.Rand) ([]bool, error) {
	if _, err := checkCount(s, count); err != nil {
		return nil, err
	}
	slots := s.Slots()
	mask := make([]bool, slots)
	if count == 0 {
		return mask, nil
	}
	first := randomAliveSlot(s, rng)
	mask[first] = true
	minDist := substrateBFS(s, first)
	for placed := 1; placed < count; placed++ {
		best, bestD := -1, -1
		for v := 0; v < slots; v++ {
			if mask[v] || minDist[v] == unreachable {
				continue
			}
			if minDist[v] > bestD {
				best, bestD = v, minDist[v]
			}
		}
		if best == -1 {
			// Disconnected leftovers: place anywhere alive and free.
			for v := 0; v < slots && best == -1; v++ {
				if !mask[v] && s.Alive(v) {
					best = v
				}
			}
		}
		mask[best] = true
		for v, d := range substrateBFS(s, best) {
			if d != unreachable && (minDist[v] == unreachable || d < minDist[v]) {
				minDist[v] = d
			}
		}
	}
	return mask, nil
}

// Count returns the number of Byzantine vertices in a mask.
func Count(mask []bool) int {
	c := 0
	for _, b := range mask {
		if b {
			c++
		}
	}
	return c
}

// HonestMask returns the complement of a Byzantine mask.
func HonestMask(byz []bool) []bool {
	h := make([]bool, len(byz))
	for i, b := range byz {
		h[i] = !b
	}
	return h
}
