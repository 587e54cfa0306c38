package byzantine

import (
	"sort"

	"byzcount/internal/counting"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// This file implements the attacks against Algorithm 1 (the LOCAL
// deterministic algorithm): consistent fake-network injection (the
// Remark 1 scenario), equivocation (split-brain seals), degree lies, and
// muteness. The fake-network attack is the interesting one — it is
// locally undetectable and can only be caught by the expansion checks.

// FakeWorld is a fabricated network region shared by all Byzantine nodes
// so that their lies are mutually consistent. It holds a random regular
// graph over fresh random IDs, BFS layers from each attachment point, and
// the mapping from Byzantine node IDs to their attachment ("root") fake
// node.
type FakeWorld struct {
	maxDegree int
	adj       map[sim.NodeID][]sim.NodeID
	roots     []sim.NodeID
	nextRoot  int
	attached  map[sim.NodeID]sim.NodeID   // byz ID -> root fake ID
	backRefs  map[sim.NodeID][]sim.NodeID // root fake ID -> attached byz IDs
}

// NewFakeWorld fabricates a consistent fake region of `size` nodes with
// internal degree fakeDegree, leaving room for attachments under the
// global degree bound maxDegree. roots is the number of distinct
// attachment points (Byzantine nodes round-robin over them).
func NewFakeWorld(size, fakeDegree, maxDegree, roots int, rng *xrand.Rand) (*FakeWorld, error) {
	g, err := graph.HND(size, fakeDegree, rng.Split("fakegraph"))
	if err != nil {
		return nil, err
	}
	idStream := rng.Split("fakeids")
	ids := make([]sim.NodeID, size)
	seen := make(map[sim.NodeID]bool, size)
	for i := range ids {
		id := sim.NodeID(idStream.ID())
		for seen[id] {
			id = sim.NodeID(idStream.ID())
		}
		seen[id] = true
		ids[i] = id
	}
	w := &FakeWorld{
		maxDegree: maxDegree,
		adj:       make(map[sim.NodeID][]sim.NodeID, size),
		attached:  make(map[sim.NodeID]sim.NodeID),
		backRefs:  make(map[sim.NodeID][]sim.NodeID),
	}
	for v := 0; v < size; v++ {
		// Deduplicate parallel edges (seals must be simple) straight off
		// the shared CSR row — no per-vertex Neighbors copy.
		var nbrs []sim.NodeID
		for _, u := range g.Adj(v) {
			id := ids[u]
			dup := false
			for _, seen := range nbrs {
				if seen == id {
					dup = true
					break
				}
			}
			if !dup {
				nbrs = append(nbrs, id)
			}
		}
		w.adj[ids[v]] = nbrs
	}
	if roots < 1 {
		roots = 1
	}
	if roots > size {
		roots = size
	}
	// Cluster the attachment points in one BFS ball: a smart adversary
	// wants the fabricated region to unfold to its full depth, so it
	// exposes a compact boundary rather than scattering entry points that
	// would make the whole region a few hops shallow.
	center := rng.Split("roots").Intn(size)
	ball := g.Ball(center, size)
	for i := 0; i < roots; i++ {
		w.roots = append(w.roots, ids[ball[i]])
	}
	return w, nil
}

// AttachK registers a Byzantine node with k distinct attachment edges and
// returns the fake endpoints. Widening the cut is how an adversary with
// degree headroom (Delta - d extra edges per node) scales the attack: the
// expansion checks only fail to detect the fabricated region once the
// total cut width B*k rivals the expansion budget alpha*n — precisely the
// tolerance boundary of Theorem 1.
func (w *FakeWorld) AttachK(byzID sim.NodeID, k int) []sim.NodeID {
	if k < 1 {
		k = 1
	}
	if k > len(w.roots) {
		k = len(w.roots)
	}
	if root, ok := w.attached[byzID]; ok {
		// Idempotent: return this node's existing attachments.
		out := []sim.NodeID{root}
		for _, r := range w.roots {
			for _, b := range w.backRefs[r] {
				if b == byzID && r != root {
					out = append(out, r)
				}
			}
		}
		return out
	}
	seen := make(map[sim.NodeID]bool, k)
	out := make([]sim.NodeID, 0, k)
	for len(out) < k {
		root := w.roots[w.nextRoot%len(w.roots)]
		w.nextRoot++
		if seen[root] {
			continue
		}
		seen[root] = true
		out = append(out, root)
		w.backRefs[root] = append(w.backRefs[root], byzID)
	}
	w.attached[byzID] = out[0]
	return out
}

// SealOf returns the fabricated seal record for fake node x: its fake
// neighbors plus any Byzantine nodes attached to it, sorted for
// determinism.
func (w *FakeWorld) SealOf(x sim.NodeID) counting.SealRecord {
	nbrs := append([]sim.NodeID(nil), w.adj[x]...)
	nbrs = append(nbrs, w.backRefs[x]...)
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	return counting.SealRecord{Node: x, Neighbors: nbrs}
}

// LayersMulti returns the BFS layers of the fake world from the given
// simultaneous sources; layer k is broadcast by the attached Byzantine
// nodes at round k+1 to mimic the arrival timing of a genuine flood.
func (w *FakeWorld) LayersMulti(roots []sim.NodeID) [][]sim.NodeID {
	dist := make(map[sim.NodeID]int, len(w.adj))
	queue := make([]sim.NodeID, 0, len(w.adj))
	layers := [][]sim.NodeID{nil}
	for _, root := range roots {
		if _, ok := dist[root]; !ok {
			dist[root] = 0
			queue = append(queue, root)
			layers[0] = append(layers[0], root)
		}
	}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, y := range w.adj[x] {
			if _, ok := dist[y]; !ok {
				d := dist[x] + 1
				dist[y] = d
				queue = append(queue, y)
				for len(layers) <= d {
					layers = append(layers, nil)
				}
				layers[d] = append(layers[d], y)
			}
		}
	}
	return layers
}

// FakeNetworkLocal is the Remark 1 adversary for Algorithm 1: it behaves
// like a perfectly consistent honest node whose seal includes one extra
// edge into a large fabricated expander, and it floods the fabricated
// region's seals with genuine-looking timing. No inconsistency or degree
// check can fire (provided the degree bound Delta exceeds the real
// degree); only the expansion machinery can stop it.
type FakeNetworkLocal struct {
	world  *FakeWorld
	edges  int // attachment edges claimed into the fake region
	roots  []sim.NodeID
	layers [][]sim.NodeID
}

var _ sim.Proc = (*FakeNetworkLocal)(nil)
var _ sim.Sequential = (*FakeNetworkLocal)(nil)

// StepsSequentially marks this adversary for the engine's sequential
// pass: all attached nodes mutate one shared FakeWorld, and the
// round-robin attachment order is part of the deterministic execution.
func (f *FakeNetworkLocal) StepsSequentially() {}

// NewFakeNetworkLocal returns a fake-network adversary bound to the
// shared world, claiming `edges` attachment edges (clamped to >= 1).
func NewFakeNetworkLocal(world *FakeWorld, edges int) *FakeNetworkLocal {
	if edges < 1 {
		edges = 1
	}
	return &FakeNetworkLocal{world: world, edges: edges}
}

// Halted is always false.
func (f *FakeNetworkLocal) Halted() bool { return false }

// Step broadcasts the node's own (padded) seal at round 0 and one fake
// BFS layer per subsequent round.
func (f *FakeNetworkLocal) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if round == 0 {
		f.roots = f.world.AttachK(env.ID, f.edges)
		f.layers = f.world.LayersMulti(f.roots)
		uniq := make(map[sim.NodeID]bool, len(env.Neighbors))
		nbrs := make([]sim.NodeID, 0, len(env.Neighbors)+len(f.roots))
		for k := range env.Neighbors {
			if id := env.NeighborID(k); !uniq[id] {
				uniq[id] = true
				nbrs = append(nbrs, id)
			}
		}
		nbrs = append(nbrs, f.roots...)
		return env.Broadcast(counting.LocalDelta{
			Seals: []counting.SealRecord{{Node: env.ID, Neighbors: nbrs}},
		})
	}
	layerIdx := round - 1
	if layerIdx >= len(f.layers) {
		// Fake region exhausted; keep heartbeating to avoid mute checks.
		return env.Broadcast(counting.LocalDelta{})
	}
	seals := make([]counting.SealRecord, 0, len(f.layers[layerIdx]))
	for _, x := range f.layers[layerIdx] {
		seals = append(seals, f.world.SealOf(x))
	}
	return env.Broadcast(counting.LocalDelta{Seals: seals})
}
