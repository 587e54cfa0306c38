package counting

import (
	"errors"
	"testing"

	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

func ids(xs ...uint64) []sim.NodeID {
	out := make([]sim.NodeID, len(xs))
	for i, x := range xs {
		out[i] = sim.NodeID(x)
	}
	return out
}

func TestViewMergeBasic(t *testing.T) {
	v := NewView(4)
	if err := v.Merge(SealRecord{Node: 1, Neighbors: ids(2, 3)}); err != nil {
		t.Fatal(err)
	}
	if !v.IsSealed(1) || v.IsSealed(2) {
		t.Error("seal state wrong")
	}
	if v.sealedCount != 1 || len(v.nodes) != 3 {
		t.Errorf("counts: sealed=%d known=%d", v.sealedCount, len(v.nodes))
	}
}

func TestViewMergeDuplicateOK(t *testing.T) {
	v := NewView(4)
	rec := SealRecord{Node: 1, Neighbors: ids(2, 3)}
	if err := v.Merge(rec); err != nil {
		t.Fatal(err)
	}
	// Same info again (even permuted) is fine.
	if err := v.Merge(SealRecord{Node: 1, Neighbors: ids(3, 2)}); err != nil {
		t.Fatalf("duplicate merge rejected: %v", err)
	}
}

func TestViewMergeReseal(t *testing.T) {
	v := NewView(4)
	if err := v.Merge(SealRecord{Node: 1, Neighbors: ids(2, 3)}); err != nil {
		t.Fatal(err)
	}
	err := v.Merge(SealRecord{Node: 1, Neighbors: ids(2, 4)})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("reseal with different set accepted: %v", err)
	}
}

func TestViewMergeDegreeBound(t *testing.T) {
	v := NewView(2)
	err := v.Merge(SealRecord{Node: 1, Neighbors: ids(2, 3, 4)})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("degree violation accepted: %v", err)
	}
}

func TestViewMergeSelfLoopAndParallel(t *testing.T) {
	v := NewView(4)
	if err := v.Merge(SealRecord{Node: 1, Neighbors: ids(1, 2)}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("self-loop accepted: %v", err)
	}
	if err := v.Merge(SealRecord{Node: 1, Neighbors: ids(2, 2)}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("parallel edge accepted: %v", err)
	}
}

func TestViewMergeCrossSealForward(t *testing.T) {
	// 1 seals claiming edge to 2; 2 then seals WITHOUT 1 -> inconsistent.
	v := NewView(4)
	if err := v.Merge(SealRecord{Node: 1, Neighbors: ids(2)}); err != nil {
		t.Fatal(err)
	}
	err := v.Merge(SealRecord{Node: 2, Neighbors: ids(3)})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("edge denial accepted: %v", err)
	}
}

func TestViewMergeCrossSealReverse(t *testing.T) {
	// 2 seals without 1; 1 then claims an edge to 2 -> inconsistent.
	v := NewView(4)
	if err := v.Merge(SealRecord{Node: 2, Neighbors: ids(3)}); err != nil {
		t.Fatal(err)
	}
	if err := v.Merge(SealRecord{Node: 3, Neighbors: ids(2)}); err != nil {
		t.Fatalf("consistent closure rejected: %v", err)
	}
	err := v.Merge(SealRecord{Node: 1, Neighbors: ids(2)})
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("unclaimed edge accepted: %v", err)
	}
}

func TestViewBallLayers(t *testing.T) {
	// Path 1-2-3-4, all sealed.
	v := NewView(4)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(v.Merge(SealRecord{Node: 1, Neighbors: ids(2)}))
	must(v.Merge(SealRecord{Node: 2, Neighbors: ids(1, 3)}))
	must(v.Merge(SealRecord{Node: 3, Neighbors: ids(2, 4)}))
	must(v.Merge(SealRecord{Node: 4, Neighbors: ids(3)}))
	layers := v.BallLayers(1)
	if len(layers) != 4 {
		t.Fatalf("layers = %v", layers)
	}
	if len(layers[0]) != 1 || len(layers[1]) != 1 || len(layers[2]) != 1 || len(layers[3]) != 1 {
		t.Errorf("layer sizes wrong: %v", layers)
	}
	// Unknown center yields a singleton layer.
	if l := v.BallLayers(99); len(l) != 1 || len(l[0]) != 1 {
		t.Errorf("unknown center layers = %v", l)
	}
}

func TestExpansionChecksGrowingBall(t *testing.T) {
	// A star's center: ball(0)={c}, layer1 = leaves: expansion fine.
	v := NewView(10)
	if err := v.Merge(SealRecord{Node: 1, Neighbors: ids(2, 3, 4, 5)}); err != nil {
		t.Fatal(err)
	}
	if !v.ExpansionChecks(1, 0.5) {
		t.Error("growing view failed expansion check")
	}
}

func TestExpansionChecksSaturated(t *testing.T) {
	// A fully sealed triangle has an empty frontier: the full-set check
	// must fail for any positive alpha.
	v := NewView(4)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(v.Merge(SealRecord{Node: 1, Neighbors: ids(2, 3)}))
	must(v.Merge(SealRecord{Node: 2, Neighbors: ids(1, 3)}))
	must(v.Merge(SealRecord{Node: 3, Neighbors: ids(1, 2)}))
	if v.ExpansionChecks(1, 0.1) {
		t.Error("saturated view passed expansion check")
	}
}

func TestSweepCheckTooSmall(t *testing.T) {
	v := NewView(4)
	if err := v.Merge(SealRecord{Node: 1, Neighbors: ids(2)}); err != nil {
		t.Fatal(err)
	}
	if !v.SweepCheck(0.3, 40, xrand.New(1)) {
		t.Error("tiny view should pass sweep trivially")
	}
}

func TestSweepCheckExpanderPasses(t *testing.T) {
	// Seal a healthy expander fully... but leave an unsealed frontier so
	// the "whole set" prefix has outward expansion. Build a 3-regular-ish
	// circulant with chords and one extra frontier node per vertex.
	v := NewView(8)
	const n = 24
	nbr := func(i int) []sim.NodeID {
		return ids(
			uint64((i+1)%n+1),
			uint64((i+n-1)%n+1),
			uint64((i+5)%n+1),
			uint64((i+n-5)%n+1),
			uint64(100+i), // private unsealed frontier node
		)
	}
	for i := 0; i < n; i++ {
		if err := v.Merge(SealRecord{Node: sim.NodeID(i + 1), Neighbors: nbr(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !v.SweepCheck(0.2, 60, xrand.New(2)) {
		t.Error("expander view failed sweep check")
	}
}

func TestSweepCheckDetectsBottleneck(t *testing.T) {
	// Two sealed cliques joined by a single edge, no unsealed frontier:
	// the sweep must find the sparse cut.
	v := NewView(16)
	clique := func(base uint64, size int, extra sim.NodeID) {
		for i := 0; i < size; i++ {
			var nbrs []sim.NodeID
			for j := 0; j < size; j++ {
				if j != i {
					nbrs = append(nbrs, sim.NodeID(base+uint64(j)))
				}
			}
			if i == 0 && extra != 0 {
				nbrs = append(nbrs, extra)
			}
			if err := v.Merge(SealRecord{Node: sim.NodeID(base + uint64(i)), Neighbors: nbrs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	clique(100, 12, 200) // clique A, node 100 links to node 200
	clique(200, 12, 100) // clique B, node 200 links to node 100
	if v.SweepCheck(0.3, 80, xrand.New(3)) {
		t.Error("sweep failed to detect the two-clique bottleneck")
	}
}

func TestLocalDeltaSizeBits(t *testing.T) {
	d := LocalDelta{Seals: []SealRecord{{Node: 1, Neighbors: ids(2, 3)}}}
	want := 16 + 16 + 64*3
	if d.SizeBits() != want {
		t.Errorf("SizeBits = %d, want %d", d.SizeBits(), want)
	}
	empty := LocalDelta{}
	if empty.SizeBits() != 16 {
		t.Errorf("empty SizeBits = %d", empty.SizeBits())
	}
}

func TestContainsID(t *testing.T) {
	s := ids(2, 4, 6, 8)
	for _, x := range []uint64{2, 4, 6, 8} {
		if !containsID(s, sim.NodeID(x)) {
			t.Errorf("containsID missed %d", x)
		}
	}
	for _, x := range []uint64{1, 3, 9} {
		if containsID(s, sim.NodeID(x)) {
			t.Errorf("containsID false positive %d", x)
		}
	}
	if containsID(nil, 1) {
		t.Error("empty containsID")
	}
}

// BallLayers runs the view's BFS (the traversal ExpansionChecks walks)
// from center and groups the vertices by distance: layers[0] = {center},
// layers[1] = its neighbors, and so on. An unknown center is a singleton.
func (v *View) BallLayers(center sim.NodeID) [][]sim.NodeID {
	c := v.lookup(center)
	if c < 0 {
		return [][]sim.NodeID{{center}}
	}
	queue := v.bfsLayers(c)
	var layers [][]sim.NodeID
	for _, x := range queue {
		d := int(v.dist[x])
		for len(layers) <= d {
			layers = append(layers, nil)
		}
		layers[d] = append(layers[d], v.nodes[x])
	}
	return layers
}
