// Package dynamic provides the churn-capable network substrate: an
// H(n,d) topology maintained as d/2 Hamiltonian cycles under node joins
// and leaves (the local O(1) repair of Law & Siu and the self-healing
// expanders of Pandurangan & Trehan, both cited in Section 2). The
// Network implements sim.Topology, so churn runs execute on the unified
// sim.Engine — with its deterministic parallelism, CONGEST budgeting,
// and allocation-free steady state — rather than on a package-local
// round loop; Runner wires the churn process in as the engine's
// between-rounds hook.
//
// The paper's motivation is dynamic peer-to-peer networks ([3,4,5]) whose
// protocols assume knowledge of log n even as nodes come and go; this
// package lets the reproduction measure how the counting protocol behaves
// when that churn actually happens.
package dynamic

import (
	"fmt"

	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// Slot is a dense vertex index. Slots of departed nodes are recycled for
// joiners, so process arrays stay compact.
type Slot = int

// Network is an H(n,d)-style topology under churn: d/2 circular
// doubly-linked cycles over the alive slots. Every alive slot appears
// exactly once in every cycle, so the (multigraph) degree is exactly d.
// It implements sim.Topology: every Leave and Join bumps the epoch, and
// the engine re-resolves neighborhoods against it.
type Network struct {
	d      int
	succ   [][]Slot // succ[c][s]: successor of slot s in cycle c (-1 if dead)
	pred   [][]Slot
	alive  []bool
	free   []Slot
	nAlive int
	epoch  uint64
	// slotEpoch[s] is the epoch at which s's neighborhood last changed —
	// the per-slot dirty stamp behind sim.Topology.EpochOf, which keeps
	// the engine's refresh cost proportional to the churn rate, not n.
	slotEpoch []uint64
}

var _ sim.Topology = (*Network)(nil)

// NewNetwork builds an initial network of n nodes with degree d (even,
// >= 2; n >= 3) from the given random stream.
func NewNetwork(n, d int, rng *xrand.Rand) (*Network, error) {
	if n < 3 {
		return nil, fmt.Errorf("dynamic: need n >= 3, got %d", n)
	}
	if d < 2 || d%2 != 0 {
		return nil, fmt.Errorf("dynamic: need even d >= 2, got %d", d)
	}
	net := &Network{
		d:         d,
		succ:      make([][]Slot, d/2),
		pred:      make([][]Slot, d/2),
		alive:     make([]bool, n),
		nAlive:    n,
		slotEpoch: make([]uint64, n),
	}
	for i := range net.alive {
		net.alive[i] = true
	}
	for c := 0; c < d/2; c++ {
		net.succ[c] = make([]Slot, n)
		net.pred[c] = make([]Slot, n)
		perm := rng.SplitN("cycle", c).Perm(n)
		for i, s := range perm {
			next := perm[(i+1)%n]
			net.succ[c][s] = next
			net.pred[c][next] = s
		}
	}
	return net, nil
}

// Degree returns the size of slot s's neighbor multiset: the constant
// degree d while s is alive, 0 once it is dead.
func (net *Network) Degree(s Slot) int {
	if !net.Alive(s) {
		return 0
	}
	return net.d
}

// NumAlive returns the current number of alive nodes.
func (net *Network) NumAlive() int { return net.nAlive }

// Slots returns the capacity of the slot table (alive + recycled).
func (net *Network) Slots() int { return len(net.alive) }

// Alive reports whether slot s currently hosts a node.
func (net *Network) Alive(s Slot) bool { return s >= 0 && s < len(net.alive) && net.alive[s] }

// Epoch is bumped on every Leave and Join; the engine re-resolves
// neighborhoods exactly when it changes.
func (net *Network) Epoch() uint64 { return net.epoch }

// EpochOf reports the epoch at which slot s's neighborhood last changed
// (0 if never): the slot itself and, for every cycle, the slots whose
// links a Leave repair or Join splice rewired.
func (net *Network) EpochOf(s Slot) uint64 { return net.slotEpoch[s] }

// AppendNeighbors appends the neighbor multiset of s — its predecessor
// and successor in every cycle (2 * d/2 = d entries, possibly
// repeating) — to buf and returns the extended slice. Dead slots append
// nothing.
func (net *Network) AppendNeighbors(s Slot, buf []int) []int {
	if !net.Alive(s) {
		return buf
	}
	for c := range net.succ {
		buf = append(buf, net.pred[c][s], net.succ[c][s])
	}
	return buf
}

// Neighbors returns the neighbor multiset of s as a fresh slice (nil for
// dead slots); the engine uses the allocation-free AppendNeighbors.
func (net *Network) Neighbors(s Slot) []Slot {
	if !net.Alive(s) {
		return nil
	}
	return net.AppendNeighbors(s, make([]Slot, 0, net.d))
}

// Leave removes slot s: in every cycle its predecessor is stitched
// directly to its successor — the O(1) local repair. The slot is recycled
// for future joins. Removing below 3 alive nodes is rejected.
func (net *Network) Leave(s Slot) error {
	if !net.Alive(s) {
		return fmt.Errorf("dynamic: slot %d is not alive", s)
	}
	if net.nAlive <= 3 {
		return fmt.Errorf("dynamic: cannot shrink below 3 nodes")
	}
	net.epoch++
	for c := range net.succ {
		p, n := net.pred[c][s], net.succ[c][s]
		net.succ[c][p] = n
		net.pred[c][n] = p
		net.succ[c][s] = -1
		net.pred[c][s] = -1
		net.slotEpoch[p] = net.epoch
		net.slotEpoch[n] = net.epoch
	}
	net.slotEpoch[s] = net.epoch
	net.alive[s] = false
	net.free = append(net.free, s)
	net.nAlive--
	return nil
}

// Join inserts a new node and returns its slot: in every cycle it splices
// itself after an independently chosen random alive node — the join rule
// that keeps the topology distributed as a union of random cycles.
func (net *Network) Join(rng *xrand.Rand) Slot {
	var s Slot
	if len(net.free) > 0 {
		s = net.free[len(net.free)-1]
		net.free = net.free[:len(net.free)-1]
	} else {
		s = len(net.alive)
		net.alive = append(net.alive, false)
		net.slotEpoch = append(net.slotEpoch, 0)
		for c := range net.succ {
			net.succ[c] = append(net.succ[c], -1)
			net.pred[c] = append(net.pred[c], -1)
		}
	}
	net.epoch++
	for c := range net.succ {
		after := net.RandomAlive(rng)
		next := net.succ[c][after]
		net.succ[c][after] = s
		net.pred[c][s] = after
		net.succ[c][s] = next
		net.pred[c][next] = s
		net.slotEpoch[after] = net.epoch
		net.slotEpoch[next] = net.epoch
	}
	net.slotEpoch[s] = net.epoch
	net.alive[s] = true
	net.nAlive++
	return s
}

// RandomAlive returns a uniformly random alive slot.
func (net *Network) RandomAlive(rng *xrand.Rand) Slot {
	for {
		s := rng.Intn(len(net.alive))
		if net.alive[s] {
			return s
		}
	}
}

// Validate checks the cycle invariants: every alive slot appears exactly
// once per cycle, successor/predecessor pointers are mutually consistent,
// and each cycle is a single ring over all alive slots. Error messages
// name the offending slot together with its neighbor multiset, so a
// broken repair is debuggable from the message alone.
func (net *Network) Validate() error {
	for c := range net.succ {
		seen := 0
		var start Slot = -1
		for s, a := range net.alive {
			if a {
				start = s
				break
			}
		}
		if start == -1 {
			return fmt.Errorf("dynamic: no alive slots")
		}
		cur := start
		for {
			next := net.succ[c][cur]
			if next < 0 || next >= len(net.alive) || net.pred[c][next] != cur {
				return fmt.Errorf("dynamic: cycle %d has inconsistent links at slot %d (pred=%d succ=%d, neighbors %v)",
					c, cur, net.pred[c][cur], next, net.Neighbors(cur))
			}
			if !net.alive[next] {
				return fmt.Errorf("dynamic: cycle %d passes through dead slot %d (entered from slot %d, neighbors %v)",
					c, next, cur, net.Neighbors(cur))
			}
			seen++
			if seen > net.nAlive {
				return fmt.Errorf("dynamic: cycle %d longer than alive count %d (last slot %d, neighbors %v)",
					c, net.nAlive, cur, net.Neighbors(cur))
			}
			cur = next
			if cur == start {
				break
			}
		}
		if seen != net.nAlive {
			return fmt.Errorf("dynamic: cycle %d covers %d of %d alive slots (start slot %d, neighbors %v)",
				c, seen, net.nAlive, start, net.Neighbors(start))
		}
	}
	return nil
}
