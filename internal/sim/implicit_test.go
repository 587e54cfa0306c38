package sim_test

// Implicit-substrate equivalence: an engine over an implicit topology
// (graph.RingLattice / graph.TorusGrid) must be byte-identical to the
// engine over the materialized CSR counterpart — same IDs (both
// constructors draw from the same seed-derived stream in slot order),
// same delivery transcript, same metrics — serially and under the
// sharded parallel engine. This is what makes "run the ring at n=10^6
// without materializing adjacency" a substitution, not a new scenario.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// Compile-time: the implicit families satisfy sim.Topology directly
// (a structural interface — the graph package cannot import sim).
var (
	_ sim.Topology = (*graph.RingLattice)(nil)
	_ sim.Topology = (*graph.TorusGrid)(nil)
)

// latticeTranscript runs the congest-under-spam transcript workload
// over an engine built by build and returns the combined digest plus
// final metrics. The proc wiring is deterministic in (n, d) only, so
// implicit and materialized engines face identical processes.
func latticeTranscript(t *testing.T, eng *sim.Engine, n, d, workers int) (string, sim.Metrics) {
	t.Helper()
	eng.SetParallelism(workers)
	eng.SetEdgeCapacity(512)
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 6
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	procs := make([]sim.Proc, n)
	recs := make([]*transcriptProc, n)
	spamRng := xrand.New(1003)
	for v := range procs {
		var inner sim.Proc
		if v%41 == 0 {
			inner = byzantine.NewBeaconSpammer(params.Schedule, 6, true, spamRng.SplitN("spam", v))
		} else {
			inner = counting.NewCongestProc(params)
		}
		recs[v] = &transcriptProc{inner: inner}
		procs[v] = recs[v]
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(maxRounds); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, rec := range recs {
		for i := 0; i < 8; i++ {
			buf[i] = byte(rec.sum >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64()), eng.Metrics()
}

// TestImplicitRingLatticeEngineByteIdentical pins the implicit lattice
// engine to the materialized one across worker counts.
func TestImplicitRingLatticeEngineByteIdentical(t *testing.T) {
	const n, k = 246, 3
	lat, err := graph.NewRingLattice(n, k)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := lat.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	refDigest, refMetrics := latticeTranscript(t, sim.New(mat, sim.WithSeed(7)), n, 2*k, 1)
	for _, w := range []int{1, 4} {
		got, m := latticeTranscript(t, sim.New(lat, sim.WithSeed(7)), n, 2*k, w)
		if got != refDigest {
			t.Errorf("workers=%d: implicit digest %s != materialized %s", w, got, refDigest)
		}
		if !reflect.DeepEqual(m, refMetrics) {
			t.Errorf("workers=%d: implicit metrics diverge from materialized", w)
		}
	}
}

// TestImplicitTorusEngineByteIdentical does the same for the torus.
func TestImplicitTorusEngineByteIdentical(t *testing.T) {
	grid, err := graph.NewTorusGrid(16, 15)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := grid.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	n := grid.N()
	refDigest, refMetrics := latticeTranscript(t, sim.New(mat, sim.WithSeed(7)), n, 4, 1)
	for _, w := range []int{1, 4} {
		got, m := latticeTranscript(t, sim.New(grid, sim.WithSeed(7)), n, 4, w)
		if got != refDigest {
			t.Errorf("workers=%d: implicit digest %s != materialized %s", w, got, refDigest)
		}
		if !reflect.DeepEqual(m, refMetrics) {
			t.Errorf("workers=%d: implicit metrics diverge from materialized", w)
		}
	}
}
