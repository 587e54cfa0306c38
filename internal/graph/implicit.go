package graph

// Implicit topologies: deterministic families whose neighborhoods are
// computed on demand instead of materialized into a CSR. A million-slot
// ring lattice costs two ints, not two hundred megabytes of arc arrays.
//
// The contract that makes these safe substitutes is byte-identity: for
// every vertex, AppendNeighbors must produce exactly the row the
// materialized generator's CSR would hold — same targets, same order.
// The CSR fills arcs by replaying the edge log, so a vertex's row is its
// incident edges ordered by log index (each logged edge contributes one
// arc to each endpoint; endpoint orientation inside the pair never
// matters for simple families). The implicit families below therefore
// enumerate their incident edges with the generator's exact log indices
// and sort by index. implicit_test.go pins this per vertex against
// graph.Ring, WattsStrogatz(n,k,0), and graph.Torus.
//
// Each family's method set includes sim.Topology's and
// byzantine.Substrate's (structurally: graph sits below both and
// imports neither), so an implicit topology drops into sim.New and the
// placement/adversary layer unchanged, exactly as a *Graph does. Epoch is constant 0: the topology never mutates, so
// engines resolve each vertex once and the resolved adjacency stays
// valid forever. Materialize builds the byte-identical CSR counterpart
// for tests and small-n tooling.

import "fmt"

// RingLattice is the implicit k-nearest-neighbor ring lattice C_n^k:
// vertex v is adjacent to v±1, …, v±k (mod n). With k=1 it is exactly
// the cycle graph.Ring builds; for general k it matches
// WattsStrogatz(n, k, 0) — the unrewired small-world lattice.
type RingLattice struct {
	n, k int
}

// NewRingLattice returns the implicit ring lattice on n vertices with k
// neighbors per side, under the same parameter domain as WattsStrogatz:
// n >= 3, 1 <= k, 2k < n (so the 2k incident edges are distinct and the
// family is simple).
func NewRingLattice(n, k int) (*RingLattice, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: RingLattice requires n >= 3, got %d", n)
	}
	if k < 1 || 2*k >= n {
		return nil, fmt.Errorf("graph: RingLattice requires 1 <= k and 2k < n (k=%d, n=%d)", k, n)
	}
	if err := CheckEdgeBudget(n * k); err != nil {
		return nil, err
	}
	return &RingLattice{n: n, k: k}, nil
}

// ImplicitRing returns the implicit cycle C_n — RingLattice with k=1,
// row-identical to graph.Ring(n).
func ImplicitRing(n int) (*RingLattice, error) { return NewRingLattice(n, 1) }

// N returns the number of vertices.
func (t *RingLattice) N() int { return t.n }

// M returns the number of edges (n*k).
func (t *RingLattice) M() int { return t.n * t.k }

// Slots returns the vertex-slot count (sim.Topology).
func (t *RingLattice) Slots() int { return t.n }

// Alive reports whether slot v hosts a node; always true in range.
func (t *RingLattice) Alive(v int) bool { return v >= 0 && v < t.n }

// Epoch is constant 0: the topology never mutates (sim.Topology).
func (t *RingLattice) Epoch() uint64 { return 0 }

// EpochOf is constant 0 for every vertex (sim.Topology).
func (t *RingLattice) EpochOf(v int) uint64 { return 0 }

// Degree returns 2k for every vertex.
func (t *RingLattice) Degree(v int) int {
	t.check(v)
	return 2 * t.k
}

func (t *RingLattice) check(v int) {
	if v < 0 || v >= t.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, t.n))
	}
}

// implicitArc is one incident edge during row reconstruction: the
// generator's edge-log index and the far endpoint.
type implicitArc struct {
	idx, nbr int
}

// sortArcsByIdx insertion-sorts incident arcs by edge-log index —
// degree-sized rows, so insertion sort beats anything general.
func sortArcsByIdx(arcs []implicitArc) {
	for i := 1; i < len(arcs); i++ {
		a := arcs[i]
		p := i - 1
		for p >= 0 && arcs[p].idx > a.idx {
			arcs[p+1] = arcs[p]
			p--
		}
		arcs[p+1] = a
	}
}

// AppendNeighbors appends v's 2k lattice neighbors to buf in the exact
// CSR row order of the materialized lattice. The generator logs edge
// (u, u+j mod n) at index u*k + (j-1); vertex v's row is its incident
// edges sorted by that index. Allocation-free for k <= 8 (the arc
// scratch stays on the stack).
func (t *RingLattice) AppendNeighbors(v int, buf []int) []int {
	t.check(v)
	var stack [16]implicitArc
	arcs := stack[:0]
	if 2*t.k > len(stack) {
		arcs = make([]implicitArc, 0, 2*t.k)
	}
	for j := 1; j <= t.k; j++ {
		l := v - j
		if l < 0 {
			l += t.n
		}
		r := v + j
		if r >= t.n {
			r -= t.n
		}
		// Left neighbor l contributed edge (l, l+j) at index l*k+(j-1);
		// v's own edge (v, v+j) sits at index v*k+(j-1).
		arcs = append(arcs, implicitArc{l*t.k + (j - 1), l}, implicitArc{v*t.k + (j - 1), r})
	}
	sortArcsByIdx(arcs)
	for _, a := range arcs {
		buf = append(buf, a.nbr)
	}
	return buf
}

// Materialize builds the CSR counterpart: the same edge log the
// WattsStrogatz beta=0 lattice pass produces (and, for k=1, graph.Ring),
// so every row is byte-identical to AppendNeighbors output.
func (t *RingLattice) Materialize() (*Graph, error) {
	if err := CheckEdgeBudget(t.n * t.k); err != nil {
		return nil, err
	}
	g := New(t.n)
	g.Reserve(t.n * t.k)
	for u := 0; u < t.n; u++ {
		for j := 1; j <= t.k; j++ {
			g.AddEdge(u, (u+j)%t.n)
		}
	}
	return g, nil
}

// TorusGrid is the implicit rows x cols wraparound grid, row-identical
// to graph.Torus(rows, cols).
type TorusGrid struct {
	rows, cols int
	n          int
}

// NewTorusGrid returns the implicit torus under graph.Torus's parameter
// domain: rows, cols >= 3.
func NewTorusGrid(rows, cols int) (*TorusGrid, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graph: TorusGrid requires rows, cols >= 3 (got %dx%d)", rows, cols)
	}
	if err := CheckEdgeBudget(2 * rows * cols); err != nil {
		return nil, err
	}
	return &TorusGrid{rows: rows, cols: cols, n: rows * cols}, nil
}

// N returns the number of vertices (rows*cols).
func (t *TorusGrid) N() int { return t.n }

// M returns the number of edges (2*rows*cols).
func (t *TorusGrid) M() int { return 2 * t.n }

// Slots returns the vertex-slot count (sim.Topology).
func (t *TorusGrid) Slots() int { return t.n }

// Alive reports whether slot v hosts a node; always true in range.
func (t *TorusGrid) Alive(v int) bool { return v >= 0 && v < t.n }

// Epoch is constant 0: the topology never mutates (sim.Topology).
func (t *TorusGrid) Epoch() uint64 { return 0 }

// EpochOf is constant 0 for every vertex (sim.Topology).
func (t *TorusGrid) EpochOf(v int) uint64 { return 0 }

// Degree returns 4 for every vertex.
func (t *TorusGrid) Degree(v int) int {
	t.check(v)
	return 4
}

func (t *TorusGrid) check(v int) {
	if v < 0 || v >= t.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, t.n))
	}
}

// AppendNeighbors appends v's 4 torus neighbors to buf in the exact CSR
// row order of graph.Torus, which logs each cell's down-edge at index
// 2*(r*cols+c) and right-edge at 2*(r*cols+c)+1. Vertex v's up arc
// comes from the cell above's down-edge, its left arc from the cell to
// the left's right-edge, and its down/right arcs from its own two
// edges; the row is those four sorted by log index. Allocation-free.
func (t *TorusGrid) AppendNeighbors(v int, buf []int) []int {
	t.check(v)
	c := v % t.cols
	up := v - t.cols
	if up < 0 {
		up += t.n
	}
	down := v + t.cols
	if down >= t.n {
		down -= t.n
	}
	left := v - 1
	if c == 0 {
		left += t.cols
	}
	right := v + 1
	if c == t.cols-1 {
		right -= t.cols
	}
	arcs := [4]implicitArc{
		{2 * up, up},
		{2*left + 1, left},
		{2 * v, down},
		{2*v + 1, right},
	}
	sortArcsByIdx(arcs[:])
	for _, a := range arcs {
		buf = append(buf, a.nbr)
	}
	return buf
}

// Materialize builds the CSR counterpart via graph.Torus, so every row
// is byte-identical to AppendNeighbors output.
func (t *TorusGrid) Materialize() (*Graph, error) {
	return Torus(t.rows, t.cols)
}
