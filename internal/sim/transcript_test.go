package sim_test

// Transcript golden test: a FNV-1a digest over every delivered message
// (round, receiving vertex, sender vertex, sender ID, payload content)
// in delivery order. The constant below was recorded from the seed
// serial engine; any change to delivery order, admission decisions, or
// message content — e.g. from the arena/scratch-buffer memory model or
// the parallel worker pool — breaks this test. Parallel runs must
// produce the identical digest.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// seedCongestTranscript is the digest of the scenario below as produced
// by the seed (pre-arena) serial engine.
const seedCongestTranscript = "4515ce4d3c5d24e5"

// foldTranscript chains one round's delivered messages onto sum with
// FNV-1a: round, receiving vertex (plus its current ID when withID is
// set — the churn tests need it to pin slot recycling), then each
// message's sender vertex, sender ID, and payload content. Shared by
// the static transcript pin below and the churn transcript pin in
// churn_test.go, so the payload coverage cannot drift apart.
func foldTranscript(sum uint64, round int, env *sim.Env, withID bool, in []sim.Incoming) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	w64(sum)
	w64(uint64(round))
	w64(uint64(env.Vertex))
	if withID {
		w64(uint64(env.ID))
	}
	for _, m := range in {
		w64(uint64(m.From))
		w64(uint64(m.FromID))
		switch p := m.Payload.(type) {
		case *counting.Beacon:
			w64(1)
			w64(uint64(p.Origin()))
			for _, id := range p.AppendPath(nil) {
				w64(uint64(id))
			}
		case counting.Continue:
			w64(2)
		default:
			w64(3)
			w64(uint64(p.SizeBits()))
		}
	}
	return h.Sum64()
}

// transcriptProc wraps a process and folds every delivered message into
// a per-vertex FNV-1a digest before delegating. Per-vertex state keeps
// the wrapper safe under the sharded parallel engine; digests are
// combined in vertex order afterwards, so the total is schedule-independent.
type transcriptProc struct {
	inner sim.Proc
	sum   uint64
}

func (t *transcriptProc) Halted() bool { return t.inner.Halted() }

func (t *transcriptProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	t.sum = foldTranscript(t.sum, round, env, false, in)
	return t.inner.Step(env, round, in)
}

// runTranscript executes the congest-under-spam scenario of the golden
// tests with transcript recording and returns the combined digest.
func runTranscript(t *testing.T, workers int) string {
	t.Helper()
	const n, d = 192, 8
	g := mustHND(t, n, d, 1001)
	rng := xrand.New(1002)
	byz, err := byzantine.RandomPlacement(g, 6, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 8
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)

	eng := sim.New(g, sim.WithSeed(7))
	eng.SetParallelism(workers)
	eng.SetEdgeCapacity(512)
	procs := make([]sim.Proc, n)
	recs := make([]*transcriptProc, n)
	spamRng := xrand.New(1003)
	for v := range procs {
		var inner sim.Proc
		if byz[v] {
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
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTranscriptGoldenSerial pins the serial engine's delivery
// transcript to the digest recorded from the seed engine.
func TestTranscriptGoldenSerial(t *testing.T) {
	if got := runTranscript(t, 1); got != seedCongestTranscript {
		t.Errorf("serial transcript digest %s != seed %s", got, seedCongestTranscript)
	}
}

// TestTranscriptGoldenParallel pins the parallel engine (several worker
// counts) to the same seed transcript, inbox order included.
func TestTranscriptGoldenParallel(t *testing.T) {
	for _, w := range workerCounts[1:] {
		if got := runTranscript(t, w); got != seedCongestTranscript {
			t.Errorf("workers=%d transcript digest %s != seed %s", w, got, seedCongestTranscript)
		}
	}
}
