package graph

import (
	"strings"
	"testing"

	"byzcount/internal/xrand"
)

// TestWriteEdgeListGolden pins the edge-list text `byzcount graph -out`
// writes: a header, then each edge once as "u v" with u <= v, sorted,
// parallel edges repeated and a self-loop written as "u u".
func TestWriteEdgeListGolden(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 1)
	g.AddEdge(0, 0)
	g.AddEdge(3, 0)
	g.AddEdge(1, 2)
	for _, tc := range []struct {
		g    *Graph
		want string
	}{
		{g, "n 4\n0 0\n0 3\n1 2\n1 2\n"},
		{New(0), "n 0\n"},
	} {
		var sb strings.Builder
		if err := tc.g.WriteEdgeList(&sb); err != nil {
			t.Fatal(err)
		}
		if sb.String() != tc.want {
			t.Errorf("WriteEdgeList = %q, want %q", sb.String(), tc.want)
		}
	}
}

func TestSimpleRegular(t *testing.T) {
	rng := xrand.New(41)
	for _, tc := range []struct{ n, d int }{{64, 8}, {101, 4}, {32, 3}} {
		g, err := SimpleRegular(tc.n, tc.d, 50, rng)
		if err != nil {
			t.Fatalf("SimpleRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		if !g.IsRegular(tc.d) {
			t.Errorf("not %d-regular", tc.d)
		}
		if !g.IsSimple() {
			t.Error("not simple")
		}
	}
}

func TestSimpleRegularErrors(t *testing.T) {
	rng := xrand.New(42)
	if _, err := SimpleRegular(4, 4, 10, rng); err == nil {
		t.Error("d >= n accepted")
	}
	if _, err := SimpleRegular(5, 3, 10, rng); err == nil {
		t.Error("odd n*d accepted")
	}
	if _, err := SimpleRegular(10, 3, 0, rng); err == nil {
		t.Error("zero restarts accepted")
	}
}

func TestSimpleRegularConnectedUsually(t *testing.T) {
	// d >= 3 random regular graphs are connected whp.
	rng := xrand.New(43)
	connected := 0
	for trial := 0; trial < 10; trial++ {
		g, err := SimpleRegular(100, 4, 50, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.IsConnected() {
			connected++
		}
	}
	if connected < 9 {
		t.Errorf("only %d/10 connected", connected)
	}
}

func TestSimpleRegularHighDegree(t *testing.T) {
	// The regime where rejection sampling fails: d=8 must work here.
	rng := xrand.New(44)
	g, err := SimpleRegular(256, 8, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(8) || !g.IsSimple() {
		t.Error("SimpleRegular(256,8) malformed")
	}
}
