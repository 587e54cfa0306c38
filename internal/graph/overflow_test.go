package graph

import (
	"errors"
	"testing"

	"byzcount/internal/xrand"
)

// wantOverflow asserts err unwraps to *OverflowError naming `what`.
func wantOverflow(t *testing.T, err error, what string) {
	t.Helper()
	var of *OverflowError
	if !errors.As(err, &of) {
		t.Fatalf("err = %v, want *OverflowError", err)
	}
	if of.What != what {
		t.Errorf("OverflowError.What = %q, want %q", of.What, what)
	}
	if of.Error() == "" {
		t.Error("empty error string")
	}
}

func TestCheckEdgeBudget(t *testing.T) {
	if err := CheckEdgeBudget(0); err != nil {
		t.Errorf("0 edges rejected: %v", err)
	}
	if err := CheckEdgeBudget(MaxEdges); err != nil {
		t.Errorf("MaxEdges rejected: %v", err)
	}
	wantOverflow(t, CheckEdgeBudget(MaxEdges+1), "edges")
	wantOverflow(t, CheckEdgeBudget(-1), "edges")
}

// TestGeneratorOverflowGuards drives every generator with sizes whose
// edge count exceeds the int32 arc-offset budget. The guards run before
// any allocation, so these error paths are cheap despite the sizes.
func TestGeneratorOverflowGuards(t *testing.T) {
	rng := xrand.New(1)
	_, err := HND(1<<30, 8, rng)
	wantOverflow(t, err, "edges")
	_, err = Ring(MaxVertices)
	wantOverflow(t, err, "edges")
	_, err = Torus(1<<16, 1<<16)
	wantOverflow(t, err, "edges")
	_, err = WattsStrogatz(1<<28, 17, 0, rng)
	wantOverflow(t, err, "edges")
	_, err = NewRingLattice(1<<28, 16)
	wantOverflow(t, err, "edges")
	_, err = NewTorusGrid(1<<16, 1<<16)
	wantOverflow(t, err, "edges")
}

// TestAddEdgeOverflowPanics pins the AddEdge guard at the exact MaxEdges
// boundary (the counter is forced; logging 2^30 real edges would need
// gigabytes).
func TestAddEdgeOverflowPanics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.ForceEdgeCount(MaxEdges)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AddEdge past MaxEdges did not panic")
		}
		err, ok := r.(*OverflowError)
		if !ok {
			t.Fatalf("panic value %v, want *OverflowError", r)
		}
		if err.What != "edges" || err.Limit != MaxEdges {
			t.Errorf("panic = %+v", err)
		}
	}()
	g.AddEdge(2, 3)
}

// TestChunkedLogShape asserts the no-copy growth contract: chunks stay
// bounded, a reserved build carves exact-size chunks, and the flattened
// log preserves insertion order either way.
func TestChunkedLogShape(t *testing.T) {
	const m = 200_000
	unres := New(4)
	for i := 0; i < m; i++ {
		unres.AddEdge(i&1, 2+(i&1))
	}
	res := New(4)
	res.Reserve(m)
	for i := 0; i < m; i++ {
		res.AddEdge(i&1, 2+(i&1))
	}
	for name, g := range map[string]*Graph{"unreserved": unres, "reserved": res} {
		total := 0
		for i, ch := range g.EdgeLogChunks() {
			if len(ch)%2 != 0 {
				t.Fatalf("%s chunk %d holds a half pair", name, i)
			}
			if cap(ch) > 2*edgeChunkEdges {
				t.Errorf("%s chunk %d cap %d exceeds bound %d", name, i, cap(ch), 2*edgeChunkEdges)
			}
			total += len(ch) / 2
		}
		if total != m {
			t.Errorf("%s: chunks hold %d edges, want %d", name, total, m)
		}
	}
	// A reserved build carves exactly ceil(m/chunk) chunks.
	if got, want := len(res.EdgeLogChunks()), (m+edgeChunkEdges-1)/edgeChunkEdges; got != want {
		t.Errorf("reserved build carved %d chunks, want %d", got, want)
	}
	// Same CSR from both logs.
	for v := 0; v < 4; v++ {
		if !rowEqual(unres.Neighbors(v), res.Adj(v)) {
			t.Fatalf("vertex %d rows diverge between reserved and unreserved builds", v)
		}
	}
	if err := unres.Validate(); err != nil {
		t.Errorf("unreserved Validate: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Errorf("reserved Validate: %v", err)
	}
}
