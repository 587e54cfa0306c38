package counting

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// ErrInconsistent is reported when merged topology information
// contradicts what a node already knows — the trigger of Algorithm 1's
// line 6 (via the `inconsistent` predicate of lines 16-18).
var ErrInconsistent = errors.New("counting: inconsistent topology information")

// SealRecord is the unit of topology information in Algorithm 1: a node's
// complete incident edge set, announced by the node itself and flooded
// outward one hop per round. A record for node X claims "X's neighbors
// are exactly Neighbors".
type SealRecord struct {
	Node      sim.NodeID
	Neighbors []sim.NodeID
}

// LocalDelta is the per-round LOCAL-model message: the seal records the
// sender learned since its previous broadcast. Broadcasting deltas is
// information-equivalent to the paper's "broadcast all of B-hat(u,i)"
// (receivers reconstruct the same view) while keeping the simulation
// polynomial; cumulative bits per node still measure the LOCAL cost.
type LocalDelta struct {
	Seals []SealRecord
}

// SizeBits counts 64 bits per node ID plus a small header per record.
func (d LocalDelta) SizeBits() int {
	bits := 16
	for _, s := range d.Seals {
		bits += 16 + 64*(1+len(s.Neighbors))
	}
	return bits
}

// View is a node's accumulated approximation of the network topology
// (B-hat(u,i) in the paper). It stores seal records and the adjacency
// they imply, and detects the paper's inconsistency conditions during
// merging.
//
// Internally every node ID is interned to a dense int32 index on first
// sight, and all adjacency, seal, and claim bookkeeping runs on flat
// index-keyed slices with generation-stamped scratch for traversals. The
// one remaining map is the ID->index intern table (IDs are uniform
// 64-bit values, so some hashing is unavoidable); it is consulted once
// per ID per record instead of on every adjacency touch, which is what
// removed the map traffic that dominated E1's LOCAL runs. All checks,
// orders, and draws are bit-identical to the seed map-based view.
type View struct {
	maxDegree int

	idx   map[sim.NodeID]int32 // intern table
	nodes []sim.NodeID         // index -> ID

	// Per-index state, parallel to nodes. A node is sealed when
	// sealed[i]; sealNbrs[i] is its sorted full neighbor list (IDs) and
	// sealIdx[i] the same neighbors as interned indices (parallel
	// positions). adj[i] is the symmetric adjacency implied by seals, in
	// first-claim order, deduplicated. claimedBy[i] lists the sealed
	// nodes that claim an edge to the not-yet-sealed i; when i finally
	// seals, its record must name every claimant (and, symmetrically,
	// every sealed node it names must have claimed it).
	sealed      []bool
	sealNbrs    [][]sim.NodeID
	sealIdx     [][]int32
	adj         [][]int32
	claimedBy   [][]int32
	sealedCount int

	// Traversal scratch, reused across calls (a View belongs to one
	// process and is stepped by one goroutine).
	mark  []uint32
	dist  []int32
	gen   uint32
	queue []int32

	// nbrScratch holds the sorted copy of a record's neighbor list while
	// Merge validates it. Flooding delivers every seal many times, and
	// the duplicate path returns before the record is stored, so sorting
	// into this reusable buffer means only first-time seals allocate.
	nbrScratch []sim.NodeID

	// sweep is the SweepCheck workspace, reused across rounds (the check
	// runs every round once views are large enough, and rebuilding its
	// compact sealed-subgraph representation from scratch dominated the
	// check's cost).
	sweep sweepScratch
}

// sweepScratch is SweepCheck's reusable workspace.
type sweepScratch struct {
	nodes    []int32 // sealed nodes (global indices), sorted by ID
	compact  []int32 // global index -> compact sealed index, -1 otherwise
	adj      [][]int32
	adjSlab  []int32
	order    []int
	inPrefix []bool
	outSeal  []bool
	deg      []float64
	pi       []float64
	x        []float64
	y        []float64
}

// NewView returns an empty view that enforces the degree bound maxDegree
// (the Delta known to all nodes in Theorem 1).
func NewView(maxDegree int) *View {
	return &View{
		maxDegree: maxDegree,
		idx:       make(map[sim.NodeID]int32),
	}
}

// intern returns the dense index of x, assigning the next one on first
// sight.
func (v *View) intern(x sim.NodeID) int32 {
	if i, ok := v.idx[x]; ok {
		return i
	}
	i := int32(len(v.nodes))
	v.idx[x] = i
	v.nodes = append(v.nodes, x)
	v.sealed = append(v.sealed, false)
	v.sealNbrs = append(v.sealNbrs, nil)
	v.sealIdx = append(v.sealIdx, nil)
	v.adj = append(v.adj, nil)
	v.claimedBy = append(v.claimedBy, nil)
	return i
}

// lookup returns the dense index of x, or -1 if never seen.
func (v *View) lookup(x sim.NodeID) int32 {
	if i, ok := v.idx[x]; ok {
		return i
	}
	return -1
}

// nextGen starts a fresh stamped traversal over the interned index
// space, growing the scratch arrays to cover newly interned nodes.
func (v *View) nextGen() uint32 {
	if len(v.mark) < len(v.nodes) {
		grown := make([]uint32, len(v.nodes)+len(v.nodes)/2+8)
		copy(grown, v.mark)
		v.mark = grown
		dist := make([]int32, len(grown))
		copy(dist, v.dist)
		v.dist = dist
	}
	v.gen++
	if v.gen == 0 {
		for i := range v.mark {
			v.mark[i] = 0
		}
		v.gen = 1
	}
	return v.gen
}

// IsSealed reports whether node x's full edge set is known.
func (v *View) IsSealed(x sim.NodeID) bool {
	i := v.lookup(x)
	return i >= 0 && v.sealed[i]
}

// Merge incorporates a seal record, returning ErrInconsistent (wrapped
// with context) when the record contradicts existing knowledge:
//
//   - the claimed degree exceeds the known bound Delta (line 17),
//   - the node was already sealed with a different edge set (line 18), or
//   - the claimed edge set disagrees with another sealed node's record
//     (an edge must appear in both endpoints' seals).
//
// Nothing is interned on the error paths, so a rejected record leaves
// the view untouched (matching the seed behavior, where the known-node
// count only grew on commit).
func (v *View) Merge(rec SealRecord) error {
	if len(rec.Neighbors) > v.maxDegree {
		return fmt.Errorf("%w: node %d claims degree %d > %d",
			ErrInconsistent, rec.Node, len(rec.Neighbors), v.maxDegree)
	}
	nbrs := append(v.nbrScratch[:0], rec.Neighbors...)
	v.nbrScratch = nbrs[:0]
	sortIDs(nbrs)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i] == nbrs[i-1] {
			return fmt.Errorf("%w: node %d claims a parallel edge to %d",
				ErrInconsistent, rec.Node, nbrs[i])
		}
	}
	for _, w := range nbrs {
		if w == rec.Node {
			return fmt.Errorf("%w: node %d claims a self-loop", ErrInconsistent, rec.Node)
		}
	}
	self := v.lookup(rec.Node)
	if self >= 0 && v.sealed[self] {
		if !equalIDs(v.sealNbrs[self], nbrs) {
			return fmt.Errorf("%w: node %d re-sealed with a different edge set",
				ErrInconsistent, rec.Node)
		}
		return nil // duplicate of known information
	}
	// Cross-check against already-sealed neighbors: an edge {a,b} must be
	// claimed by both sides.
	for _, w := range nbrs {
		if wi := v.lookup(w); wi >= 0 && v.sealed[wi] && !containsID(v.sealNbrs[wi], rec.Node) {
			return fmt.Errorf("%w: node %d claims an edge to %d, which is sealed without it",
				ErrInconsistent, rec.Node, w)
		}
	}
	// Reverse direction: every sealed node that previously claimed an edge
	// to rec.Node must appear in rec's neighbor set.
	if self >= 0 {
		for _, claimant := range v.claimedBy[self] {
			if !containsID(nbrs, v.nodes[claimant]) {
				return fmt.Errorf("%w: node %d is sealed with an edge to %d, which now denies it",
					ErrInconsistent, v.nodes[claimant], rec.Node)
			}
		}
	}
	// Commit: the record is stored, so the scratch-sorted list graduates
	// to a private exact-size copy.
	nbrs = append(make([]sim.NodeID, 0, len(nbrs)), nbrs...)
	if self < 0 {
		self = v.intern(rec.Node)
	}
	v.claimedBy[self] = nil
	v.sealed[self] = true
	v.sealNbrs[self] = nbrs
	v.sealedCount++
	var ni []int32
	if len(nbrs) > 0 {
		ni = make([]int32, 0, len(nbrs))
	}
	for _, w := range nbrs {
		wi := v.intern(w)
		ni = append(ni, wi)
		v.addArc(self, wi)
		v.addArc(wi, self)
		if !v.sealed[wi] {
			v.claimedBy[wi] = append(v.claimedBy[wi], self)
		}
	}
	v.sealIdx[self] = ni
	return nil
}

// addArc records the implied adjacency a->b once. The arc lists are
// short (bounded by the degree bound plus the claimants of a node, both
// small in every workload), so a linear dedup scan beats the hash set it
// replaced.
func (v *View) addArc(a, b int32) {
	row := v.adj[a]
	for _, x := range row {
		if x == b {
			return
		}
	}
	if row == nil {
		row = make([]int32, 0, v.maxDegree)
	}
	v.adj[a] = append(row, b)
}

// resize returns buf with length n, reallocating only on growth.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// sortIDs sorts a small NodeID slice ascending (insertion sort; records
// are degree-bounded).
func sortIDs(s []sim.NodeID) {
	if len(s) > 32 {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return
	}
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i - 1
		for j >= 0 && s[j] > x {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
}

func equalIDs(a, b []sim.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsID(sorted []sim.NodeID, x sim.NodeID) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}

// bfsLayers runs BFS from the interned index c over the implied
// adjacency, filling the scratch queue in discovery order and dist with
// hop counts. It returns the queue (scratch-owned).
func (v *View) bfsLayers(c int32) []int32 {
	gen := v.nextGen()
	v.mark[c] = gen
	v.dist[c] = 0
	queue := append(v.queue[:0], c)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		dx := v.dist[x]
		for _, w := range v.adj[x] {
			if v.mark[w] != gen {
				v.mark[w] = gen
				v.dist[w] = dx + 1
				queue = append(queue, w)
			}
		}
	}
	v.queue = queue
	return queue
}

// ExpansionChecks evaluates the Algorithm 1 expansion checks (lines 9-13)
// over the tractable candidate family described in DESIGN.md and returns
// false (check failed, the node must decide) if any candidate subset of
// sealed nodes has vertex expansion below alpha within the view:
//
//  1. every ball B(center, j) consisting solely of sealed nodes, whose
//     out-neighborhood is then exactly the next BFS layer; and
//  2. the set of all sealed nodes, whose out-neighborhood is the unsealed
//     frontier (this catches the "view stopped growing" signal of
//     Lemma 5).
//
// Candidates are restricted to sealed nodes so that their out-edges are
// exactly known; this mirrors the paper's S ⊆ B-hat(u,i) being evaluated
// against B-hat(u,i+1).
func (v *View) ExpansionChecks(center sim.NodeID, alpha float64) bool {
	// An unknown center is its own unsealed one-vertex layer, so the ball
	// checks are vacuous (the seed code's loop broke immediately).
	if c := v.lookup(center); c >= 0 {
		queue := v.bfsLayers(c)
		// Walk the BFS order layer by layer (queue is sorted by dist):
		// evaluate each fully sealed layer's ratio against the next layer,
		// stopping at the first layer containing an unsealed node.
		ballSize := 0
		lo := 0
		for lo < len(queue) {
			d := v.dist[queue[lo]]
			hi := lo
			for hi < len(queue) && v.dist[queue[hi]] == d {
				hi++
			}
			ballSize += hi - lo
			sealedLayer := true
			for _, x := range queue[lo:hi] {
				if !v.sealed[x] {
					sealedLayer = false
					break
				}
			}
			if !sealedLayer {
				break
			}
			next := 0
			for k := hi; k < len(queue) && v.dist[queue[k]] == d+1; k++ {
				next++
			}
			if float64(next) < alpha*float64(ballSize) {
				return false
			}
			lo = hi
		}
	}
	// Full sealed set versus its unsealed frontier.
	return v.sealedOnlyCheck(alpha, 1)
}

// sealedOnlyCheck evaluates candidate 2: the full sealed set against its
// unsealed frontier. minSealed guards the empty-set case.
func (v *View) sealedOnlyCheck(alpha float64, minSealed int) bool {
	if v.sealedCount < minSealed {
		return true
	}
	gen := v.nextGen()
	frontier := 0
	for i, s := range v.sealed {
		if !s {
			continue
		}
		for _, w := range v.sealIdx[i] {
			if !v.sealed[w] && v.mark[w] != gen {
				v.mark[w] = gen
				frontier++
			}
		}
	}
	return float64(frontier) >= alpha*float64(v.sealedCount)
}

// SweepCheck looks for a sparse cut among the sealed nodes using a
// spectral sweep: it computes an approximate second eigenvector of the
// lazy random walk on the sealed subgraph via power iteration, orders the
// sealed nodes by eigenvector value, and evaluates the vertex expansion
// of every prefix (out-neighbors counted in the full view, so unsealed
// frontier nodes count as expansion). It returns false when some prefix
// has expansion below alpha — the polynomial-time stand-in for the
// paper's exponential "every vertex subset" check, in the spirit of the
// spectral blacklisting of King & Saia cited in Section 1.4.
//
// This is the check that defeats the fake-network attack of Remark 1:
// once the real graph is fully discovered, the set of real nodes has an
// out-neighborhood consisting only of the o(n) Byzantine attachment
// points, and the eigenvector ordering separates the two sides of that
// bottleneck.
func (v *View) SweepCheck(alpha float64, iters int, rng *xrand.Rand) bool {
	n := v.sealedCount
	if n < 8 {
		return true // too small for a meaningful spectral signal
	}
	sw := &v.sweep
	// Sealed nodes in deterministic (ascending ID) order, with a compact
	// index per sealed node.
	nodes := sw.nodes[:0] // global indices, sorted by ID
	for i, s := range v.sealed {
		if s {
			nodes = append(nodes, int32(i))
		}
	}
	sw.nodes = nodes
	sort.Slice(nodes, func(a, b int) bool { return v.nodes[nodes[a]] < v.nodes[nodes[b]] })
	compact := resize(sw.compact, len(v.nodes)) // global index -> compact, -1 if unsealed
	sw.compact = compact
	for i := range compact {
		compact[i] = -1
	}
	for ci, gi := range nodes {
		compact[gi] = int32(ci)
	}
	// Sealed-subgraph adjacency (compact indices) in one backing slab,
	// filled CSR-style: row capacities are the seal degrees, so the fill
	// never grows a row.
	total := 0
	for _, gi := range nodes {
		total += len(v.sealIdx[gi])
	}
	slab := resize(sw.adjSlab, total)[:0]
	sw.adjSlab = slab[:cap(slab)]
	adj := sw.adj[:0]
	for _, gi := range nodes {
		lo := len(slab)
		for _, w := range v.sealIdx[gi] {
			if cj := compact[w]; cj >= 0 {
				slab = append(slab, cj)
			}
		}
		adj = append(adj, slab[lo:len(slab):len(slab)])
	}
	sw.adj = adj
	vec := secondEigenvectorInto(sw, adj, iters, rng)
	if vec == nil {
		return true
	}
	order := sw.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	sw.order = order
	sort.Slice(order, func(a, b int) bool { return vec[order[a]] < vec[order[b]] })

	// Sweep prefixes, counting out-neighbors in the FULL view (sealed
	// members outside the prefix and unsealed frontier nodes both count).
	inPrefix := resize(sw.inPrefix, n)
	sw.inPrefix = inPrefix
	outSealed := resize(sw.outSeal, n) // compact-indexed: sealed, adjacent to prefix, not in it
	sw.outSeal = outSealed
	for i := 0; i < n; i++ {
		inPrefix[i] = false
		outSealed[i] = false
	}
	outSealedCount := 0
	gen := v.nextGen() // stamps unsealed out-neighbors on the global index space
	outUnsealedCount := 0
	for k, oi := range order {
		gi := nodes[oi]
		inPrefix[oi] = true
		if outSealed[oi] {
			outSealed[oi] = false
			outSealedCount--
		}
		for _, w := range v.sealIdx[gi] {
			if cj := compact[w]; cj >= 0 {
				if !inPrefix[cj] && !outSealed[cj] {
					outSealed[cj] = true
					outSealedCount++
				}
			} else if v.mark[w] != gen {
				v.mark[w] = gen
				outUnsealedCount++
			}
		}
		size := k + 1
		if size < 4 || size > n-1 {
			continue // skip degenerate prefixes
		}
		if float64(outSealedCount+outUnsealedCount) < alpha*float64(size) {
			return false
		}
	}
	return true
}

// secondEigenvectorInto approximates the second eigenvector of the lazy
// walk on the given adjacency via power iteration, projecting out the
// stationary component, with all float vectors drawn from the reusable
// sweep workspace. Returns nil when the graph is degenerate. Every rng
// draw is identical to the seed implementation's.
func secondEigenvectorInto(sw *sweepScratch, adj [][]int32, iters int, rng *xrand.Rand) []float64 {
	n := len(adj)
	if n == 0 {
		return nil
	}
	deg := resize(sw.deg, n)
	sw.deg = deg
	var total float64
	for i := range adj {
		deg[i] = float64(len(adj[i]))
		total += deg[i]
		if deg[i] == 0 {
			deg[i] = 1 // isolated sealed node; keep the walk well-defined
		}
	}
	if total == 0 {
		return nil
	}
	pi := resize(sw.pi, n)
	sw.pi = pi
	for i := range pi {
		pi[i] = deg[i] / total
	}
	x := resize(sw.x, n)
	sw.x = x
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	y := resize(sw.y, n)
	sw.y = y
	if iters < 8 {
		iters = 8
	}
	for it := 0; it < iters; it++ {
		var dot float64
		for i := range x {
			dot += pi[i] * x[i]
		}
		for i := range x {
			x[i] -= dot
		}
		for i := range y {
			var sum float64
			for _, w := range adj[i] {
				sum += x[w]
			}
			y[i] = 0.5*x[i] + 0.5*sum/deg[i]
		}
		var norm float64
		for i := range y {
			norm += y[i] * y[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil
		}
		for i := range y {
			x[i] = y[i] / norm
		}
	}
	return x
}
