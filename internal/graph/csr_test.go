package graph

import (
	"fmt"
	"testing"

	"byzcount/internal/xrand"
)

// refAdj replays the graph's edge log through the seed-era
// slice-of-slices representation: for each logged edge (u,v), u appends
// v and then v appends u (a self-loop appends twice to u). The CSR's
// per-vertex rows must reproduce this exactly — same targets, same
// order.
func refAdj(g *Graph) [][]int32 {
	adj := make([][]int32, g.N())
	eu, ev := g.EdgeLog()
	for i := range eu {
		u, v := eu[i], ev[i]
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	return adj
}

// refBFS is a naive map-based BFS over the reference adjacency.
func refBFS(adj [][]int32, src int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range adj[u] {
			if dist[w] == Unreachable {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// TestCSRMatchesReference is the cross-representation property test of
// the CSR substrate core: across every generator family and seeds 1-20,
// the CSR view must agree with the seed slice-of-slices representation
// on N, M, the degree sequence, per-vertex adjacency (including order),
// and BFS distances.
func TestCSRMatchesReference(t *testing.T) {
	type gen struct {
		name  string
		build func(rng *xrand.Rand) (*Graph, error)
	}
	gens := []gen{
		{"hnd", func(rng *xrand.Rand) (*Graph, error) { return HND(96, 8, rng) }},
		// Uniform random endpoints: self-loops and parallel edges, which
		// the CSR must replay in log order like any other arc.
		{"multigraph", func(rng *xrand.Rand) (*Graph, error) {
			g := New(80)
			for i := 0; i < 200; i++ {
				g.AddEdge(rng.Intn(80), rng.Intn(80))
			}
			return g, nil
		}},
		{"steger-wormald", func(rng *xrand.Rand) (*Graph, error) { return SimpleRegular(64, 6, 100, rng) }},
		{"watts-strogatz", func(rng *xrand.Rand) (*Graph, error) { return WattsStrogatz(96, 3, 0.3, rng) }},
		{"ring", func(rng *xrand.Rand) (*Graph, error) { return Ring(50) }},
		{"torus", func(rng *xrand.Rand) (*Graph, error) { return Torus(6, 7) }},
		{"dumbbell", func(rng *xrand.Rand) (*Graph, error) {
			g, _, err := Dumbbell(24, 30, 4, rng)
			return g, err
		}},
		{"tree", func(rng *xrand.Rand) (*Graph, error) { return CompleteBinaryTree(6) }},
		// The seed picks the size here, so the 20 runs cover 20 shapes,
		// down to the 1-vertex path and the 2-vertex star.
		{"path", func(rng *xrand.Rand) (*Graph, error) { return Path(1 + rng.Intn(64)) }},
		{"ring-lattice", func(rng *xrand.Rand) (*Graph, error) {
			n := 3 + rng.Intn(90)
			lat, err := NewRingLattice(n, 1+rng.Intn((n-1)/2))
			if err != nil {
				return nil, err
			}
			return lat.Materialize()
		}},
		// One hub row of degree n-1 at a random position in the offsets.
		{"star", func(rng *xrand.Rand) (*Graph, error) {
			n := 2 + rng.Intn(60)
			hub := rng.Intn(n)
			g := New(n)
			for v := 0; v < n; v++ {
				if v != hub {
					g.AddEdge(hub, v)
				}
			}
			return g, nil
		}},
	}
	for _, gn := range gens {
		for seed := uint64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", gn.name, seed), func(t *testing.T) {
				g, err := gn.build(xrand.New(seed))
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				ref := refAdj(g)
				if len(ref) != g.N() {
					t.Fatalf("N mismatch: ref %d, got %d", len(ref), g.N())
				}
				arcs := 0
				for _, row := range ref {
					arcs += len(row)
				}
				if arcs != 2*g.M() {
					t.Fatalf("M mismatch: ref %d arcs, M=%d", arcs, g.M())
				}
				for u := 0; u < g.N(); u++ {
					if g.Degree(u) != len(ref[u]) {
						t.Fatalf("degree(%d): ref %d, got %d", u, len(ref[u]), g.Degree(u))
					}
					adj := g.Adj(u)
					if len(adj) != len(ref[u]) {
						t.Fatalf("adj(%d) length: ref %d, got %d", u, len(ref[u]), len(adj))
					}
					for k := range adj {
						if adj[k] != ref[u][k] {
							t.Fatalf("adj(%d)[%d]: ref %d, got %d (order must match the append-built representation)",
								u, k, ref[u][k], adj[k])
						}
					}
				}
				// BFS distances from a few sources.
				for _, src := range []int{0, g.N() / 2, g.N() - 1} {
					want := refBFS(ref, src)
					got := g.BFS(src)
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("BFS(%d)[%d]: ref %d, got %d", src, v, want[v], got[v])
						}
					}
				}
			})
		}
	}
}

// TestCSRInterleavedMutation pins the lazy-finalize contract: reads after
// further AddEdge calls observe the new edges, in append order.
func TestCSRInterleavedMutation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	if got := g.Adj(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("adj(0) = %v before mutation", got)
	}
	g.AddEdge(0, 2)
	g.AddEdge(3, 0)
	if got := g.Adj(0); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("adj(0) = %v after mutation, want [1 2 3]", got)
	}
	if d, err := g.Diameter(); err != nil || d != 2 {
		t.Fatalf("diameter = %d, %v", d, err)
	}
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	if d, err := g.Diameter(); err != nil || d != 1 {
		t.Fatalf("diameter after densifying = %d, %v (memo must invalidate)", d, err)
	}
}
