package graph

import (
	"testing"
	"testing/quick"

	"byzcount/internal/xrand"
)

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph N=%d M=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Error("empty graph should count as connected")
	}
}

func TestNewPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(2) != 1 {
		t.Errorf("degrees = %d,%d,%d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	New(2).AddEdge(0, 2)
}

func TestSelfLoopDegree(t *testing.T) {
	g := New(1)
	g.AddEdge(0, 0)
	if g.Degree(0) != 2 {
		t.Errorf("self-loop degree = %d, want 2", g.Degree(0))
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
	if g.IsSimple() {
		t.Error("graph with loop reported simple")
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if g.Degree(0) != 2 || g.Degree(1) != 2 {
		t.Error("parallel edge degrees wrong")
	}
	if g.IsSimple() {
		t.Error("multigraph reported simple")
	}
	el := g.EdgeList()
	if len(el) != 2 {
		t.Errorf("EdgeList = %v, want two copies", el)
	}
}

func TestNeighborsIsCopy(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	nb := g.Neighbors(0)
	nb[0] = 2
	if g.Neighbors(0)[0] != 1 {
		t.Error("Neighbors returned a shared slice")
	}
}

func TestEdgeListLoopsOnce(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	el := g.EdgeList()
	if len(el) != 2 {
		t.Fatalf("EdgeList = %v", el)
	}
	if el[0] != [2]int{0, 0} || el[1] != [2]int{0, 1} {
		t.Fatalf("EdgeList = %v", el)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.M() != 1 || c.M() != 2 {
		t.Errorf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestValidate(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 2)
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	// Hand-corrupt the edge log: a dangling arc (degree bump without a
	// logged edge) and an out-of-range endpoint. Asymmetric adjacency is
	// structurally impossible in the CSR representation — both arc
	// directions derive from one edge-log entry — so the seed-era
	// asymmetry corruption has no counterpart.
	bad := New(2)
	bad.AddEdge(0, 1)
	bad.deg[0]++ // degree sum no longer matches the edge log
	if err := bad.Validate(); err == nil {
		t.Error("degree/edge-log mismatch accepted")
	}
	bad2 := New(2)
	bad2.AddEdge(0, 1)
	bad2.log[0][1] = 7 // out-of-range endpoint
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
}

func TestBFSPath(t *testing.T) {
	g, err := Path(5)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(0)
	for v, want := range []int{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[2] != Unreachable {
		t.Errorf("dist to isolated vertex = %d", dist[2])
	}
	if g.Distance(0, 2) != Unreachable {
		t.Error("Distance should be Unreachable")
	}
}

func TestBFSLimited(t *testing.T) {
	g, _ := Path(10)
	dist := g.BFSLimited(0, 3)
	if dist[3] != 3 || dist[4] != Unreachable {
		t.Errorf("BFSLimited dist[3]=%d dist[4]=%d", dist[3], dist[4])
	}
}

func TestBall(t *testing.T) {
	g, _ := Ring(10)
	ball := g.Ball(0, 2)
	if len(ball) != 5 { // 0, 1, 9, 2, 8
		t.Fatalf("Ball(0,2) = %v", ball)
	}
	if ball[0] != 0 {
		t.Errorf("ball should start at center: %v", ball)
	}
}

func TestBallRadiusZero(t *testing.T) {
	g, _ := Ring(5)
	ball := g.Ball(3, 0)
	if len(ball) != 1 || ball[0] != 3 {
		t.Errorf("Ball(3,0) = %v", ball)
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g, _ := Path(6)
	sc := getScratch(g.N())
	ecc, conn := g.eccInto(sc, 0)
	putScratch(sc)
	if !conn || ecc != 5 {
		t.Errorf("eccentricity of vertex 0 = %d,%v", ecc, conn)
	}
	d, err := g.Diameter()
	if err != nil || d != 5 {
		t.Errorf("Diameter = %d, %v", d, err)
	}
	ring, _ := Ring(10)
	d, err = ring.Diameter()
	if err != nil || d != 5 {
		t.Errorf("Ring diameter = %d, %v", d, err)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(2)
	if _, err := g.Diameter(); err != ErrNotConnected {
		t.Errorf("want ErrNotConnected, got %v", err)
	}
}

func TestApproxDiameterTree(t *testing.T) {
	g, _ := CompleteBinaryTree(5)
	exact, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	approx, err := g.ApproxDiameter(0)
	if err != nil {
		t.Fatal(err)
	}
	// Double sweep is exact on trees.
	if approx != exact {
		t.Errorf("ApproxDiameter = %d, exact = %d", approx, exact)
	}
}

func TestApproxDiameterDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if _, err := g.ApproxDiameter(0); err != ErrNotConnected {
		t.Errorf("want ErrNotConnected, got %v", err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	comp, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] || comp[4] == comp[0] {
		t.Errorf("comp = %v", comp)
	}
}

func TestMinMaxDegreeRegular(t *testing.T) {
	g, _ := Ring(6)
	if g.MinDegree() != 2 || g.MaxDegree() != 2 || !g.IsRegular(2) {
		t.Error("ring should be 2-regular")
	}
	if g.IsRegular(3) {
		t.Error("ring is not 3-regular")
	}
	empty := New(0)
	if empty.MinDegree() != 0 || empty.MaxDegree() != 0 {
		t.Error("empty graph degrees")
	}
}

func TestDegreeSumInvariant(t *testing.T) {
	// Property: sum of degrees = 2 * M for any sequence of AddEdge calls.
	f := func(edges [][2]uint8) bool {
		g := New(16)
		for _, e := range edges {
			g.AddEdge(int(e[0])%16, int(e[1])%16)
		}
		sum := 0
		for u := 0; u < 16; u++ {
			sum += g.Degree(u)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSTriangleInequality(t *testing.T) {
	rng := xrand.New(9)
	g, err := HND(50, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	d0 := g.BFS(0)
	d1 := g.BFS(1)
	for v := 0; v < g.N(); v++ {
		// |d0[v] - d1[v]| <= d(0,1)
		diff := d0[v] - d1[v]
		if diff < 0 {
			diff = -diff
		}
		if diff > d0[1] {
			t.Fatalf("triangle inequality violated at %d: %d vs %d (d01=%d)", v, d0[v], d1[v], d0[1])
		}
	}
}
