// Package graph provides the network substrate for the Byzantine counting
// reproduction: an undirected (multi)graph type, the random-graph
// generators used by the paper (the H(n,d) permutation model, simple
// random regular graphs, Watts-Strogatz small-world networks),
// deterministic topologies for baselines and the impossibility
// experiment, and the structural tools the algorithms rely on (BFS
// balls, diameter, vertex expansion, the locally-tree-like test of
// Definition 3).
//
// Vertices are dense integers 0..N()-1. Edges are undirected; parallel
// edges and self-loops are representable, and the H(n,d) model produces
// parallel edges (the paper notes the expected constant number of
// multi-edges in Section 1.2).
//
// # Memory model
//
// A Graph is built incrementally (New + AddEdge append to a chunked
// edge log) and read through a CSR (compressed sparse row) view: one
// offsets array and one targets array backing every adjacency list,
// finalized lazily by a streamed two-pass degree-count/fill step on
// first read after a mutation. The edge log is a sequence of
// bounded-size chunks rather than one flat slice, so growth never
// copies: peak build memory is O(m) with no append-doubling spikes, and
// a reserved build (Reserve up front) carves exactly ceil(m/chunk)
// chunk allocations. Per-vertex adjacency is a slice into a single
// backing array — no per-vertex allocations, cache-friendly traversal.
// Vertex ids and arc offsets are int32 (MaxVertices/MaxEdges); builds
// that would exceed them fail with a typed *OverflowError. Mutation must
// be externally synchronized; concurrent reads of a finalized graph are
// safe (the lazy view builds under a mutex and publishes through an
// atomic), which is what lets the experiment driver's substrate cache
// share one immutable graph across concurrent trials and the engine's
// step workers resolve their vertices from it at once.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// CSR capacity limits: vertex ids live in int32 edge-log entries and
// CSR targets, and CSR offsets index arcs (two per undirected edge)
// with int32.
const (
	// MaxVertices is the largest vertex count a Graph supports.
	MaxVertices = 1<<31 - 1
	// MaxEdges is the largest edge count a Graph supports: each edge
	// stores two int32 arc entries, so offsets overflow past this.
	MaxEdges = (1<<31 - 1) / 2
)

// OverflowError reports a construction that would exceed the CSR's
// int32 limits. Generators return it from their edge-budget precheck;
// AddEdge and New panic with it when a hand-driven build crosses the
// limit (the same contract as their range panics).
type OverflowError struct {
	What  string // "vertices" or "edges"
	Count int    // requested count
	Limit int    // the exceeded limit
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("graph: %d %s exceed the CSR int32 limit of %d", e.Count, e.What, e.Limit)
}

// CheckEdgeBudget returns a typed *OverflowError when an intended build
// of `edges` edges would overflow the CSR's int32 arc offsets, nil
// otherwise. Generators call it before allocating anything, so the
// error path costs no memory.
func CheckEdgeBudget(edges int) error {
	if edges < 0 || edges > MaxEdges {
		return &OverflowError{What: "edges", Count: edges, Limit: MaxEdges}
	}
	return nil
}

// edgeChunkEdges bounds one edge-log chunk (64Ki edges = 512KiB per
// chunk): large enough that chunk bookkeeping vanishes in build cost,
// small enough that carving never triggers huge-object copies.
const edgeChunkEdges = 1 << 16

// Graph is an undirected multigraph over vertices 0..n-1. The zero value is
// an empty graph with no vertices; use New to create a graph with vertices.
type Graph struct {
	n int
	m int // number of undirected edges (each parallel edge counted once)

	// log is the chunked edge log: (u,v) endpoint pairs interleaved in
	// insertion order, split across bounded-size chunks so growth
	// appends a chunk instead of copying the whole log.
	log      [][]int32
	capEdges int // total edge capacity carved across chunks
	reserved int // Reserve hint: total edge capacity to aim for

	deg []int32 // running degree per vertex (a self-loop contributes 2)

	// csr is the finalized adjacency view, rebuilt on first read after a
	// mutation. Readers load it through the atomic pointer; builders
	// serialize on mu. The diameter memo hangs off the same finalized
	// view so a mutation invalidates both at once.
	csr atomic.Pointer[csrView]
	mu  sync.Mutex
}

// csrView is one finalized read-only view of the adjacency.
type csrView struct {
	off []int32 // len n+1; vertex u's arcs are tgt[off[u]:off[u+1]]
	tgt []int32 // arc targets, insertion order per vertex

	// diameter memo (lazy).
	diamOnce sync.Once
	diamVal  int
	diamErr  error
}

// New returns a graph with n isolated vertices. It panics if n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n > MaxVertices {
		panic(&OverflowError{What: "vertices", Count: n, Limit: MaxVertices})
	}
	return &Graph{n: n, deg: make([]int32, n)}
}

// Reserve records a capacity hint for the chunked edge log: subsequent
// AddEdge calls carve chunks sized toward `edges` total capacity (each
// bounded by edgeChunkEdges), so a generator that knows its edge count
// builds with ceil(edges/chunk) exact-size allocations and never copies.
func (g *Graph) Reserve(edges int) {
	if edges > g.reserved {
		g.reserved = edges
	}
}

// nextChunkEdges sizes the next edge-log chunk: the remaining reserved
// capacity when a hint is outstanding, else geometric growth (match the
// edges logged so far), clamped to [64, edgeChunkEdges]. Either way no
// existing chunk is ever copied, so an unreserved build costs
// O(log m + m/chunk) allocations instead of doubling copies.
func (g *Graph) nextChunkEdges() int {
	want := g.reserved - g.capEdges
	if want < g.m {
		want = g.m
	}
	if want < 64 {
		want = 64
	}
	if want > edgeChunkEdges {
		want = edgeChunkEdges
	}
	return want
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges (parallel edges each count).
func (g *Graph) M() int { return g.m }

// AddEdge adds an undirected edge between u and v. Parallel edges and
// self-loops are allowed; a self-loop contributes 2 to the degree of u.
// It panics if either endpoint is out of range, or with a typed
// *OverflowError if the edge would exceed MaxEdges.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if g.m >= MaxEdges {
		panic(&OverflowError{What: "edges", Count: g.m + 1, Limit: MaxEdges})
	}
	last := len(g.log) - 1
	if last < 0 || len(g.log[last]) == cap(g.log[last]) {
		size := g.nextChunkEdges()
		g.log = append(g.log, make([]int32, 0, 2*size))
		g.capEdges += size
		last++
	}
	g.log[last] = append(g.log[last], int32(u), int32(v))
	g.deg[u]++
	g.deg[v]++
	g.m++
	g.csr.Store(nil) // invalidate the finalized view (and its memos)
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}

// view returns the finalized CSR, building it if the edge log changed.
// The streamed two-pass build (degree prefix-sum, then an arc fill that
// replays the chunked log in insertion order) reproduces exactly the
// per-vertex append order the seed-era slice-of-slices representation
// had: for each logged edge (u,v), u gains arc v and then v gains arc
// u, so a self-loop contributes two consecutive arcs. Peak memory
// during finalize is the log (chunked, O(m)) plus the two output
// arrays — no intermediate copies.
func (g *Graph) view() *csrView {
	if v := g.csr.Load(); v != nil {
		return v
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if v := g.csr.Load(); v != nil { // raced with another builder
		return v
	}
	n := g.n
	v := &csrView{
		off: make([]int32, n+1),
		tgt: make([]int32, 2*g.m),
	}
	// Pass 1: offsets from the running degrees.
	for u := 0; u < n; u++ {
		v.off[u+1] = v.off[u] + g.deg[u]
	}
	// Pass 2: fill, using off[u] as vertex u's write cursor; afterwards
	// off[u] holds end(u) == start(u+1), so one backward shift restores
	// the offsets without a separate cursor array.
	for _, ch := range g.log {
		for i := 0; i < len(ch); i += 2 {
			u, w := ch[i], ch[i+1]
			v.tgt[v.off[u]] = w
			v.off[u]++
			v.tgt[v.off[w]] = u
			v.off[w]++
		}
	}
	for u := n; u > 0; u-- {
		v.off[u] = v.off[u-1]
	}
	v.off[0] = 0
	g.csr.Store(v)
	return v
}

// Degree returns the degree of u. A self-loop contributes 2: AddEdge(u,u)
// stores two adjacency entries for u, so the count is already the
// graph-theoretic degree.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return int(g.deg[u])
}

// Neighbors returns a copy of u's adjacency list (possibly with
// duplicates for parallel edges and u itself for self-loops).
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	v := g.view()
	row := v.tgt[v.off[u]:v.off[u+1]]
	out := make([]int, len(row))
	for i, w := range row {
		out[i] = int(w)
	}
	return out
}

// Adj returns u's adjacency list as a shared read-only view into the CSR
// targets array. Callers must not modify the returned slice; use
// Neighbors for a private copy. This no-copy accessor exists because the
// simulator touches adjacency on every round for every node.
func (g *Graph) Adj(u int) []int32 {
	g.check(u)
	v := g.view()
	return v.tgt[v.off[u]:v.off[u+1]:v.off[u+1]]
}

// Slots returns the vertex-slot count — for a static graph, simply N().
// Together with Alive and AppendNeighbors this makes *Graph satisfy the
// substrate view shared with mutable topologies (byzantine.Substrate),
// so placements and adversaries target static and churning networks
// through one interface.
func (g *Graph) Slots() int { return g.n }

// Alive reports whether slot u hosts a node; on a static graph every
// vertex is always alive.
func (g *Graph) Alive(u int) bool { return u >= 0 && u < g.n }

// Epoch returns 0: a finished static graph never changes structure, so
// the structural-change counter is constant. With Epoch, EpochOf and
// Degree, *Graph satisfies sim.Topology outright, and the engine treats
// a static graph as a network that never churns: each vertex resolves
// its row once, on its first Step.
func (g *Graph) Epoch() uint64 { return 0 }

// EpochOf returns 0: no slot's neighborhood ever changes after Finish.
func (g *Graph) EpochOf(int) uint64 { return 0 }

// AppendNeighbors appends u's neighbor multiset to buf and returns the
// extended slice, in adjacency order — the allocation-free counterpart
// of Neighbors, matching sim.Topology's accessor.
func (g *Graph) AppendNeighbors(u int, buf []int) []int {
	g.check(u)
	v := g.view()
	for _, w := range v.tgt[v.off[u]:v.off[u+1]] {
		buf = append(buf, int(w))
	}
	return buf
}

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := int32(0)
	for _, d := range g.deg {
		if d > max {
			max = d
		}
	}
	return int(max)
}

// MinDegree returns the minimum vertex degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.deg[0]
	for _, d := range g.deg[1:] {
		if d < min {
			min = d
		}
	}
	return int(min)
}

// IsSimple reports whether the graph has no self-loops and no parallel
// edges. It stamps each row's targets into a scratch mark array, so the
// cost is O(n + m) with no per-vertex maps.
func (g *Graph) IsSimple() bool {
	v := g.view()
	sc := getScratch(g.n)
	defer putScratch(sc)
	for u := 0; u < g.n; u++ {
		gen := sc.nextGen()
		for _, w := range v.tgt[v.off[u]:v.off[u+1]] {
			if int(w) == u || sc.mark[w] == gen {
				return false
			}
			sc.mark[w] = gen
		}
	}
	return true
}

// EdgeList returns each undirected edge once as a (u,v) pair with u <= v,
// sorted lexicographically. Parallel edges appear once per multiplicity.
func (g *Graph) EdgeList() [][2]int {
	edges := make([][2]int, 0, g.m)
	for _, ch := range g.log {
		for i := 0; i < len(ch); i += 2 {
			u, v := ch[i], ch[i+1]
			if u <= v {
				edges = append(edges, [2]int{int(u), int(v)})
			} else {
				edges = append(edges, [2]int{int(v), int(u)})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// ErrNotConnected is returned by operations requiring a connected graph.
var ErrNotConnected = errors.New("graph: not connected")
