package graph

import (
	"math"
	"testing"

	"byzcount/internal/xrand"
)

func TestHNDRegular(t *testing.T) {
	rng := xrand.New(1)
	for _, tc := range []struct{ n, d int }{{10, 4}, {64, 8}, {101, 6}, {3, 2}} {
		g, err := HND(tc.n, tc.d, rng)
		if err != nil {
			t.Fatalf("HND(%d,%d): %v", tc.n, tc.d, err)
		}
		if g.N() != tc.n {
			t.Errorf("N = %d", g.N())
		}
		if !g.IsRegular(tc.d) {
			t.Errorf("HND(%d,%d) not %d-regular", tc.n, tc.d, tc.d)
		}
		if g.M() != tc.n*tc.d/2 {
			t.Errorf("M = %d, want %d", g.M(), tc.n*tc.d/2)
		}
	}
}

func TestHNDConnected(t *testing.T) {
	// Union of Hamiltonian cycles is always connected (one cycle suffices).
	rng := xrand.New(2)
	for trial := 0; trial < 10; trial++ {
		g, err := HND(50, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsConnected() {
			t.Fatal("HND graph disconnected")
		}
	}
}

func TestHNDNoSelfLoops(t *testing.T) {
	rng := xrand.New(3)
	g, err := HND(30, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Adj(u) {
			if int(w) == u {
				t.Fatalf("self-loop at %d", u)
			}
		}
	}
}

func TestHNDErrors(t *testing.T) {
	rng := xrand.New(1)
	if _, err := HND(2, 4, rng); err == nil {
		t.Error("HND(2,4) should fail")
	}
	if _, err := HND(10, 3, rng); err == nil {
		t.Error("odd d should fail")
	}
	if _, err := HND(10, 0, rng); err == nil {
		t.Error("d=0 should fail")
	}
}

func TestHNDDeterministic(t *testing.T) {
	a, _ := HND(20, 4, xrand.New(7))
	b, _ := HND(20, 4, xrand.New(7))
	ea, eb := a.EdgeList(), b.EdgeList()
	if len(ea) != len(eb) {
		t.Fatal("edge counts differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestHNDExpansion(t *testing.T) {
	// H(n,d) graphs are expanders whp; check the sweep estimate is bounded
	// away from zero, and that a ring's is near zero by comparison.
	rng := xrand.New(5)
	g, err := HND(256, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	h := g.EstimateVertexExpansion(8, rng.Split("sweep"))
	ring, _ := Ring(256)
	hr := ring.EstimateVertexExpansion(8, rng.Split("sweep2"))
	if h < 0.3 {
		t.Errorf("H(256,8) expansion estimate %g too small", h)
	}
	if hr > 0.1 {
		t.Errorf("ring expansion estimate %g too large", hr)
	}
	if h <= hr {
		t.Errorf("expander (%g) should beat ring (%g)", h, hr)
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := xrand.New(9)
	g, err := WattsStrogatz(100, 3, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Errorf("N = %d", g.N())
	}
	if g.M() != 300 {
		t.Errorf("M = %d, want 300", g.M())
	}
	if !g.IsSimple() {
		t.Error("WattsStrogatz graph not simple")
	}
}

func TestWattsStrogatzBetaZeroIsLattice(t *testing.T) {
	rng := xrand.New(10)
	g, err := WattsStrogatz(20, 2, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(4) {
		t.Error("beta=0 lattice should be 2k-regular")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || g.HasEdge(0, 3) {
		t.Error("lattice structure wrong")
	}
}

func TestWattsStrogatzRewiringShortensDiameter(t *testing.T) {
	rng := xrand.New(11)
	lattice, _ := WattsStrogatz(200, 2, 0, rng.Split("a"))
	rewired, _ := WattsStrogatz(200, 2, 0.3, rng.Split("b"))
	dl, err := lattice.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	dr, err := rewired.Diameter()
	if err != nil {
		t.Skip("rewired graph disconnected for this seed") // extremely unlikely
	}
	if dr >= dl {
		t.Errorf("rewiring should shorten diameter: lattice %d vs rewired %d", dl, dr)
	}
}

func TestWattsStrogatzErrors(t *testing.T) {
	rng := xrand.New(1)
	if _, err := WattsStrogatz(2, 1, 0.5, rng); err == nil {
		t.Error("tiny n accepted")
	}
	if _, err := WattsStrogatz(10, 5, 0.5, rng); err == nil {
		t.Error("2k >= n accepted")
	}
	if _, err := WattsStrogatz(10, 2, 1.5, rng); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestRingPathTorus(t *testing.T) {
	if _, err := Ring(2); err == nil {
		t.Error("Ring(2) accepted")
	}
	if _, err := Path(0); err == nil {
		t.Error("Path(0) accepted")
	}
	p, _ := Path(1)
	if p.N() != 1 || p.M() != 0 {
		t.Error("Path(1) wrong")
	}
	tor, err := Torus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !tor.IsRegular(4) {
		t.Error("torus not 4-regular")
	}
	if !tor.IsConnected() {
		t.Error("torus disconnected")
	}
	if _, err := Torus(2, 5); err == nil {
		t.Error("Torus(2,5) accepted")
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	bt, err := CompleteBinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if bt.N() != 15 || bt.M() != 14 {
		t.Errorf("tree N=%d M=%d", bt.N(), bt.M())
	}
	if !bt.IsConnected() {
		t.Error("tree disconnected")
	}
	if _, err := CompleteBinaryTree(0); err == nil {
		t.Error("levels=0 accepted")
	}
}

func TestDumbbell(t *testing.T) {
	rng := xrand.New(12)
	g, bridge, err := Dumbbell(50, 80, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 131 {
		t.Errorf("N = %d", g.N())
	}
	if bridge != 130 {
		t.Errorf("bridge = %d", bridge)
	}
	if !g.IsConnected() {
		t.Error("dumbbell disconnected")
	}
	if g.Degree(bridge) != 2 {
		t.Errorf("bridge degree = %d", g.Degree(bridge))
	}
	// Removing the bridge's edges must disconnect left from right (and
	// isolate the bridge): three components.
	cut := New(g.N())
	for _, e := range g.EdgeList() {
		if e[0] != bridge && e[1] != bridge {
			cut.AddEdge(e[0], e[1])
		}
	}
	if _, c := cut.ConnectedComponents(); c != 3 {
		t.Errorf("bridge is not a cut vertex: %d components without it", c)
	}
	// Low expansion overall.
	h := g.EstimateVertexExpansion(8, rng.Split("sweep"))
	if h > 0.2 {
		t.Errorf("dumbbell expansion estimate %g too high", h)
	}
}

func TestDumbbellErrors(t *testing.T) {
	rng := xrand.New(1)
	if _, _, err := Dumbbell(2, 50, 4, rng); err == nil {
		t.Error("tiny side accepted")
	}
}

func TestVertexExpansionExactSmall(t *testing.T) {
	k4 := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			k4.AddEdge(u, v)
		}
	}
	// For K4 the worst set is any 2-set: |Out| = 2, ratio 1... actually for
	// |S|=1 ratio is 3, |S|=2 ratio is 1. h = 1.
	if got := k4.VertexExpansionExact(); got != 1 {
		t.Errorf("h(K4) = %g, want 1", got)
	}
	ring6, _ := Ring(6)
	// Worst S for C6: a contiguous arc of 3 has Out = 2, ratio 2/3.
	if got, want := ring6.VertexExpansionExact(), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("h(C6) = %g, want %g", got, want)
	}
	p2, _ := Path(2)
	if got := p2.VertexExpansionExact(); got != 1 {
		t.Errorf("h(P2) = %g", got)
	}
	single := New(1)
	if got := single.VertexExpansionExact(); got != 0 {
		t.Errorf("h(single) = %g", got)
	}
}

func TestVertexExpansionExactPanicsLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("large exact expansion did not panic")
		}
	}()
	g := New(25)
	g.VertexExpansionExact()
}

func TestEstimateMatchesExactOnTinyGraphs(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 5; trial++ {
		g, err := HND(12, 4, rng.SplitN("g", trial))
		if err != nil {
			t.Fatal(err)
		}
		exact := g.VertexExpansionExact()
		est := g.EstimateVertexExpansion(20, rng.SplitN("s", trial))
		// Estimate is an upper bound on the exact value.
		if est < exact-1e-9 {
			t.Errorf("estimate %g below exact %g", est, exact)
		}
	}
}

func TestCheegerBoundSpectral(t *testing.T) {
	rng := xrand.New(15)
	g, _ := HND(256, 8, rng)
	bound := g.CheegerBoundSpectral(100, rng.Split("p"))
	if bound <= 0.01 {
		t.Errorf("spectral bound %g too small for an expander", bound)
	}
	ring, _ := Ring(256)
	rb := ring.CheegerBoundSpectral(100, rng.Split("q"))
	if rb >= bound {
		t.Errorf("ring bound %g should be below expander bound %g", rb, bound)
	}
	disc := New(4)
	if b := disc.CheegerBoundSpectral(50, rng.Split("r")); b != 0 {
		t.Errorf("disconnected bound = %g", b)
	}
}

func TestTreeLikeOnTree(t *testing.T) {
	bt, _ := CompleteBinaryTree(6)
	// Pick a depth-3 vertex: its radius-2 ball contains only vertices of
	// full degree 3 in the interior (the degree-2 root is outside the
	// interior, and the leaves sit exactly on the boundary).
	if !bt.IsLocallyTreeLike(11, 2, 3) {
		t.Error("interior tree vertex should be locally tree-like")
	}
	// Vertex 1 is adjacent to the degree-2 root, which is interior at
	// radius 2 and breaks the full-degree requirement.
	if bt.IsLocallyTreeLike(1, 2, 3) {
		t.Error("vertex next to the low-degree root must not qualify")
	}
}

func TestTreeLikeOnRing(t *testing.T) {
	ring, _ := Ring(20)
	// A ring vertex is tree-like for small radii (its ball is a path)...
	if !ring.IsLocallyTreeLike(0, 3, 2) {
		t.Error("ring vertex should be tree-like at radius 3")
	}
	// ...but not when the ball wraps around and closes the cycle.
	if ring.IsLocallyTreeLike(0, 10, 2) {
		t.Error("ring vertex must not be tree-like once the cycle closes")
	}
}

func TestTreeLikeRejectsTriangle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if g.IsLocallyTreeLike(0, 1, 2) {
		t.Error("triangle vertex reported tree-like at radius 1")
	}
}

func TestTreeLikeRadiusZeroTrivial(t *testing.T) {
	g, _ := Torus(3, 3) // 4-regular, every vertex on triangles
	if !g.IsLocallyTreeLike(0, 0, 4) {
		t.Error("radius 0 should be trivially tree-like")
	}
}

func TestTreeLikeFractionHND(t *testing.T) {
	rng := xrand.New(16)
	g, _ := HND(1024, 8, rng)
	r := TreeLikeRadius(1024, 8)
	frac := g.TreeLikeFraction(r, 8)
	// Lemma 2: all but O(n^0.8) nodes are tree-like; at n=1024 that still
	// permits a noticeable minority, so use a soft threshold.
	if frac < 0.5 {
		t.Errorf("tree-like fraction %g too small at radius %d", frac, r)
	}
}

func TestTreeLikeRadius(t *testing.T) {
	if r := TreeLikeRadius(1, 8); r != 1 {
		t.Errorf("degenerate radius = %d", r)
	}
	if r := TreeLikeRadius(1<<20, 2); r < 1 {
		t.Errorf("radius = %d", r)
	}
	big := TreeLikeRadius(1<<30, 4)
	small := TreeLikeRadius(1<<10, 4)
	if big < small {
		t.Errorf("radius should grow with n: %d < %d", big, small)
	}
}

func TestTreeLikeCountMatchesFraction(t *testing.T) {
	rng := xrand.New(17)
	g, _ := HND(128, 4, rng)
	c := g.TreeLikeCount(2, 4)
	f := g.TreeLikeFraction(2, 4)
	if math.Abs(f-float64(c)/128) > 1e-12 {
		t.Error("count and fraction disagree")
	}
	empty := New(0)
	if empty.TreeLikeFraction(2, 4) != 0 {
		t.Error("empty fraction should be 0")
	}
}
