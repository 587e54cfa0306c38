package sim_test

// Virtual-time scheduler guards.
//
// The load-bearing one is the unit-latency pin: with no delay model and
// with sim.UnitDelay, the engine must reproduce the delivery transcripts
// (and metrics) recorded from the synchronous round loop it replaced —
// across seeds {42, 7}, worker counts {1, 3, 8}, and churn on/off. That
// is what lets E1–E18's golden tables and the seed transcript digest
// keep pinning ONE engine while delay and fault models ride on it.
//
// The rest are direct checks of the scheduler itself: fixed latencies
// arrive exactly d ticks later, jittered and region/GST schedules are
// identical at every worker count, partitions drop cross-group traffic
// during exactly their window, drop faults count in Dropped but never
// in Messages, Sequential procs under parallel jittered delivery match
// the serial run, and the spec-string grammar round-trips.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/dynamic"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// vtSeeds are the seed pairs the unit-latency equivalence property is
// checked across (ISSUE 7 satellite: seeds {42, 7}).
var vtSeeds = []uint64{42, 7}

// runTranscriptSeeded is runTranscript with every seed derived from
// `seed` and the delivery models configurable — the workhorse of the
// unit-latency pins and the cross-worker determinism checks.
func runTranscriptSeeded(t *testing.T, seed uint64, workers int, delay sim.DelayModel, fault sim.FaultModel) (string, sim.Metrics, int) {
	t.Helper()
	const n, d = 192, 8
	g := mustHND(t, n, d, seed+1)
	rng := xrand.New(seed + 2)
	byz, err := byzantine.RandomPlacement(g, 6, rng.Split("place"))
	if err != nil {
		t.Fatal(err)
	}
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 8
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)

	eng := sim.New(g, sim.WithSeed(seed))
	eng.SetParallelism(workers)
	eng.SetEdgeCapacity(512)
	eng.SetDelayModel(delay)
	eng.SetFaultModel(fault)
	procs := make([]sim.Proc, n)
	recs := make([]*transcriptProc, n)
	spamRng := xrand.New(seed + 3)
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
	rounds, err := eng.Run(maxRounds)
	if err != nil {
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
	return fmt.Sprintf("%016x", h.Sum64()), eng.Metrics(), rounds
}

// runChurnTranscriptSeeded is the churn-side workhorse: the congest
// counting run under a join/leave storm of churn_test.go, with the
// seeds parameterized and the delay model configurable.
func runChurnTranscriptSeeded(t *testing.T, seed uint64, workers int, delay sim.DelayModel) (string, sim.Metrics) {
	t.Helper()
	const n, d = 128, 8
	params := counting.DefaultCongestParams(d)
	params.MaxPhase = 8
	maxRounds := params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	net, err := dynamic.NewNetwork(n, d, xrand.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]uint64, 4*n) // room for slot-table growth
	run, err := dynamic.NewRunner(net, dynamic.Churn{Leaves: 2, Joins: 2, StopAfter: 60, Mixed: true}, seed+2,
		func(slot dynamic.Slot, id sim.NodeID) sim.Proc {
			return &slotDigestProc{inner: counting.NewCongestProc(params), slot: slot, sums: sums}
		})
	if err != nil {
		t.Fatal(err)
	}
	run.SetParallelism(workers)
	run.SetDelayModel(delay)
	if _, err := run.Run(maxRounds); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, sum := range sums {
		for i := 0; i < 8; i++ {
			buf[i] = byte(sum >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64()), run.Metrics()
}

// legacyPin is one run's output recorded from the synchronous round
// loop the engine had before unit-latency virtual time became its only
// delivery path: the transcript digest plus the metrics that depend on
// delivery order and admission.
type legacyPin struct {
	digest                 string
	rounds                 int
	messages, bits, capped int64
	maxMsgBits             int
}

// checkLegacyPin compares one run against its pin.
func checkLegacyPin(t *testing.T, label string, want legacyPin, digest string, m sim.Metrics) {
	t.Helper()
	got := legacyPin{digest, m.Rounds, m.Messages, m.Bits, m.Capped, m.MaxMsgBits}
	if got != want {
		t.Errorf("%s: got %+v, pinned %+v", label, got, want)
	}
}

// unitModels are the two spellings of lockstep delivery: no model, and
// the explicit unit-latency model. Both must reproduce the pins.
var unitModels = []sim.DelayModel{nil, sim.UnitDelay{}}

// TestVTUnitMatchesLegacyStatic is the equivalence property on the
// static congest-under-spam scenario: for every seed and worker count,
// the unit-latency engine (nil delay or UnitDelay) reproduces the
// legacy synchronous engine's transcript digest, metrics and round
// count, recorded as constants.
func TestVTUnitMatchesLegacyStatic(t *testing.T) {
	pins := map[uint64]legacyPin{
		42: {"4b3eef97f3807998", 3134, 310904, 48933248, 236080, 464},
		7:  {"e7dae0df18fe2fcf", 3134, 320232, 54000704, 229712, 464},
	}
	for _, seed := range vtSeeds {
		for _, w := range workerCounts {
			for _, delay := range unitModels {
				dig, m, rounds := runTranscriptSeeded(t, seed, w, delay, nil)
				label := fmt.Sprintf("seed=%d workers=%d delay=%v", seed, w, delay)
				checkLegacyPin(t, label, pins[seed], dig, m)
				if rounds != pins[seed].rounds {
					t.Errorf("%s: Run returned %d rounds, pinned %d", label, rounds, pins[seed].rounds)
				}
			}
		}
	}
}

// TestVTUnitMatchesLegacyChurn is the same property with churn on: a
// join/leave storm over the mutable topology, where Detach/AttachAt
// must drop and reset ring rows exactly as the legacy engine dropped
// its double buffer's.
func TestVTUnitMatchesLegacyChurn(t *testing.T) {
	pins := map[uint64]legacyPin{
		42: {"4321280adb84ad5d", 85, 34000, 5106432, 0, 336},
		7:  {"092ab9654c541c8b", 85, 34056, 5132416, 0, 336},
	}
	for _, seed := range vtSeeds {
		for _, w := range workerCounts {
			for _, delay := range unitModels {
				dig, m := runChurnTranscriptSeeded(t, seed, w, delay)
				checkLegacyPin(t, fmt.Sprintf("churn seed=%d workers=%d delay=%v", seed, w, delay), pins[seed], dig, m)
			}
		}
	}
}

// TestVTDelayDeterministicAcrossWorkers pins the new determinism claim
// itself: under drawing and non-drawing delay models (and a drop
// fault), the parallel virtual-time engine produces the serial engine's
// transcript digest and metrics at every worker count.
func TestVTDelayDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name  string
		delay sim.DelayModel
		fault sim.FaultModel
	}{
		{"uniform", sim.UniformDelay{Min: 1, Max: 4}, nil},
		{"geometric", sim.GeometricDelay{P: 0.5, Cap: 6}, nil},
		{"region", sim.RegionDelay{Regions: 3, Near: 1, Far: 3}, nil},
		{"gst", sim.GSTDelay{GST: 20, Inner: sim.UniformDelay{Min: 1, Max: 5}}, nil},
		{"drop", sim.UniformDelay{Min: 1, Max: 2}, sim.DropFault{P: 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDig, wantM, wantR := runTranscriptSeeded(t, 42, 1, tc.delay, tc.fault)
			if wantM.Messages == 0 {
				t.Fatal("scenario delivered no messages")
			}
			for _, w := range workerCounts[1:] {
				gotDig, gotM, gotR := runTranscriptSeeded(t, 42, w, tc.delay, tc.fault)
				if gotDig != wantDig {
					t.Errorf("workers=%d: digest %s != serial %s", w, gotDig, wantDig)
				}
				if !reflect.DeepEqual(gotM, wantM) {
					t.Errorf("workers=%d: metrics diverge:\nserial:   %+v\nparallel: %+v", w, wantM, gotM)
				}
				if gotR != wantR {
					t.Errorf("workers=%d: rounds %d != serial %d", w, gotR, wantR)
				}
			}
		})
	}
}

// probe is a tiny payload for the directed scheduler checks.
type probe struct{}

func (probe) SizeBits() int { return 8 }

// proberProc broadcasts a probe in the rounds sendIn reports true for
// and counts deliveries per round. It never halts.
type proberProc struct {
	sendIn func(round int) bool
	recv   map[int]int
}

func (p *proberProc) Halted() bool { return false }

func (p *proberProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if len(in) > 0 {
		if p.recv == nil {
			p.recv = make(map[int]int)
		}
		p.recv[round] += len(in)
	}
	if p.sendIn != nil && p.sendIn(round) {
		return env.Broadcast(probe{})
	}
	return nil
}

// runProbePair runs a two-vertex engine where vertex 0 broadcasts in
// the selected rounds and vertex 1 listens, and returns vertex 1's
// per-round delivery counts plus the metrics.
func runProbePair(t *testing.T, delay sim.DelayModel, fault sim.FaultModel, rounds int, sendIn func(int) bool) (map[int]int, sim.Metrics) {
	t.Helper()
	g := graph.New(2)
	g.AddEdge(0, 1)
	eng := sim.New(g, sim.WithSeed(9))
	eng.SetDelayModel(delay)
	eng.SetFaultModel(fault)
	sender := &proberProc{sendIn: sendIn}
	receiver := &proberProc{}
	if err := eng.Attach([]sim.Proc{sender, receiver}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return receiver.recv, eng.Metrics()
}

// TestVTFixedDelayArrival checks the ring arithmetic directly: a probe
// sent at tick s under a fixed delay d arrives at tick s+d, for d
// beyond the double-buffer horizon and across ring wraparound.
func TestVTFixedDelayArrival(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		recv, m := runProbePair(t, sim.UniformDelay{Min: d, Max: d}, nil, 20,
			func(r int) bool { return r == 0 || r == 7 })
		want := map[int]int{0 + d: 1, 7 + d: 1}
		if !reflect.DeepEqual(recv, want) {
			t.Errorf("delay=%d: arrivals %v, want %v", d, recv, want)
		}
		if m.Messages != 2 || m.Dropped != 0 {
			t.Errorf("delay=%d: metrics %+v, want 2 messages, 0 dropped", d, m)
		}
	}
}

// TestVTGSTDelayArrival checks the partial-synchrony switch: before GST
// the inner fixed delay applies, from GST on everything takes one tick.
func TestVTGSTDelayArrival(t *testing.T) {
	model := sim.GSTDelay{GST: 5, Inner: sim.UniformDelay{Min: 4, Max: 4}}
	recv, _ := runProbePair(t, model, nil, 20,
		func(r int) bool { return r == 0 || r == 10 })
	want := map[int]int{4: 1, 11: 1} // pre-GST: 0+4; post-GST: 10+1
	if !reflect.DeepEqual(recv, want) {
		t.Errorf("arrivals %v, want %v", recv, want)
	}
}

// TestVTRegionDelayArrival checks the asymmetric model: vertices 0 and
// 1 fall in different regions of a 2-region split, so their edge gets
// the Far latency.
func TestVTRegionDelayArrival(t *testing.T) {
	recv, _ := runProbePair(t, sim.RegionDelay{Regions: 2, Near: 1, Far: 3}, nil, 10,
		func(r int) bool { return r == 2 })
	want := map[int]int{5: 1}
	if !reflect.DeepEqual(recv, want) {
		t.Errorf("arrivals %v, want %v", recv, want)
	}
}

// TestVTDropFault checks the loss accounting at the extremes: P=1 loses
// everything into Dropped (Messages stays 0), P=0 loses nothing.
func TestVTDropFault(t *testing.T) {
	always := func(int) bool { return true }
	recv, m := runProbePair(t, nil, sim.DropFault{P: 1}, 10, always)
	if len(recv) != 0 || m.Messages != 0 || m.Dropped != 10 {
		t.Errorf("P=1: arrivals %v, metrics %+v; want none delivered, 10 dropped", recv, m)
	}
	recv, m = runProbePair(t, nil, sim.DropFault{P: 0}, 10, always)
	if m.Messages != 10 || m.Dropped != 0 || len(recv) != 9 {
		t.Errorf("P=0: arrivals %v, metrics %+v; want 10 delivered (9 in-window), 0 dropped", recv, m)
	}
}

// TestVTPartitionWindow checks the partition fault's exact window on a
// 4-cycle whose every edge crosses the 2-group round-robin split:
// deliveries stop for sends in [From, Heal) and resume after, and every
// blocked send is counted in Dropped.
func TestVTPartitionWindow(t *testing.T) {
	const rounds, from, heal = 12, 3, 7
	g := graph.New(4)
	for v := 0; v < 4; v++ {
		g.AddEdge(v, (v+1)%4)
	}
	eng := sim.New(g, sim.WithSeed(11))
	eng.SetFaultModel(sim.PartitionFault{Groups: 2, From: from, Heal: heal})
	procs := make([]sim.Proc, 4)
	recs := make([]*proberProc, 4)
	for v := range procs {
		recs[v] = &proberProc{sendIn: func(int) bool { return true }}
		procs[v] = recs[v]
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(rounds); err != nil {
		t.Fatal(err)
	}
	for v, rec := range recs {
		for r := 1; r < rounds; r++ {
			blocked := r-1 >= from && r-1 < heal // delivery at r carries sends from r-1
			if blocked && rec.recv[r] != 0 {
				t.Errorf("vertex %d: %d deliveries at round %d inside the partition window", v, rec.recv[r], r)
			}
			if !blocked && rec.recv[r] != 2 {
				t.Errorf("vertex %d: %d deliveries at round %d outside the window, want 2", v, rec.recv[r], r)
			}
		}
	}
	m := eng.Metrics()
	wantDropped := int64(4 * 2 * (heal - from)) // 4 senders x 2 edges x window
	if m.Dropped != wantDropped {
		t.Errorf("Dropped = %d, want %d", m.Dropped, wantDropped)
	}
}

// ticketBox is the mutable structure the Sequential test procs share:
// every Step takes the next ticket, and the tickets ride in the
// payloads they send, so the digest of everything delivered depends on
// the order in which Sequential procs are stepped.
type ticketBox struct{ next int }

// seqStamper is a round-driven Sequential proc: every round it folds
// its inbox and broadcasts a payload carrying the next shared ticket.
type seqStamper struct {
	box *ticketBox
	sum uint64
}

func (p *seqStamper) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	p.sum = foldTranscript(p.sum, round, env, false, in)
	p.box.next++
	return env.Broadcast(hopPayload{hops: p.box.next})
}

func (p *seqStamper) Halted() bool     { return false }
func (*seqStamper) StepsSequentially() {}

// runSequentialWorkload runs every ninth vertex of H(64,4) as a
// round-driven Sequential stamper sharing one ticket box, with relays
// everywhere else, under uniform:1-4 jitter and 10% drops. It returns
// the combined per-vertex digest, the final shared ticket, the rounds
// Run reported and the metrics.
func runSequentialWorkload(t *testing.T, workers int) (string, int, int, sim.Metrics) {
	t.Helper()
	const n = 64
	g := mustHND(t, n, 4, 5)
	eng := sim.New(g, sim.WithSeed(5))
	eng.SetParallelism(workers)
	eng.SetDelayModel(sim.UniformDelay{Min: 1, Max: 4})
	eng.SetFaultModel(sim.DropFault{P: 0.1})
	box := &ticketBox{}
	procs := make([]sim.Proc, n)
	sums := make([]*uint64, n)
	for v := range procs {
		if v%9 == 0 {
			p := &seqStamper{box: box}
			procs[v], sums[v] = p, &p.sum
		} else {
			p := &foldRelay{}
			procs[v], sums[v] = p, &p.sum
		}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	rounds, err := eng.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, sum := range sums {
		for i := 0; i < 8; i++ {
			buf[i] = byte(*sum >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64()), box.next, rounds, eng.Metrics()
}

// TestVTSequentialParallelMatchesSerial pins the parallel engine's
// Sequential pass under jittered delivery: Sequential procs are stepped
// on the coordinator in vertex order and their output is admitted in
// vertex order by the owning range worker, so transcripts, the shared
// state's final value, the round count and metrics equal the serial
// run's at every worker count.
func TestVTSequentialParallelMatchesSerial(t *testing.T) {
	wantDig, wantTicket, wantRounds, wantM := runSequentialWorkload(t, 1)
	if wantM.Messages == 0 || wantTicket == 0 {
		t.Fatalf("degenerate workload: ticket %d, metrics %+v", wantTicket, wantM)
	}
	if wantM.Dropped == 0 {
		t.Fatalf("workload dropped nothing: %+v", wantM)
	}
	for _, w := range []int{3, 4, 8} {
		dig, ticket, rounds, m := runSequentialWorkload(t, w)
		if dig != wantDig || ticket != wantTicket || rounds != wantRounds {
			t.Errorf("workers=%d: digest %s ticket %d rounds %d, serial %s ticket %d rounds %d",
				w, dig, ticket, rounds, wantDig, wantTicket, wantRounds)
		}
		if !reflect.DeepEqual(m, wantM) {
			t.Errorf("workers=%d: metrics diverge:\nserial:   %+v\nparallel: %+v", w, wantM, m)
		}
	}
}

// TestParseDelayModel checks the spec grammar: canonical specs
// round-trip through Name, and malformed specs error.
func TestParseDelayModel(t *testing.T) {
	valid := []string{"unit", "uniform:1-4", "uniform:2-2", "geo:0.5@6", "region:3/1/4", "gst:16/uniform:1-6", "gst:0/unit"}
	for _, spec := range valid {
		m, err := sim.ParseDelayModel(spec)
		if err != nil {
			t.Errorf("ParseDelayModel(%q): %v", spec, err)
			continue
		}
		if m.Name() != spec {
			t.Errorf("ParseDelayModel(%q).Name() = %q, want round-trip", spec, m.Name())
		}
		if m.MaxDelay() < 1 {
			t.Errorf("ParseDelayModel(%q).MaxDelay() = %d, want >= 1", spec, m.MaxDelay())
		}
	}
	if m, err := sim.ParseDelayModel(""); err != nil || m != nil {
		t.Errorf("ParseDelayModel(\"\") = %v, %v; want nil, nil", m, err)
	}
	invalid := []string{"bogus", "uniform:", "uniform:0-4", "uniform:5-2", "geo:1.5@4", "geo:0.5", "region:1/1/2", "region:2/0/2", "gst:-1/unit", "gst:4/", "gst:4/bogus",
		"geo:NaN@4", "gst:2/geo:NaN@4"}
	for _, spec := range invalid {
		if _, err := sim.ParseDelayModel(spec); err == nil {
			t.Errorf("ParseDelayModel(%q): expected error", spec)
		}
	}
}

// TestParseDelayModelBound: ParseDelayModel caps every latency bound —
// uniform MAX, geo CAP, region NEAR and FAR, inside gst specs too — at
// sim.MaxDelayTicks with a *DelayBoundError, and accepts the cap itself.
func TestParseDelayModelBound(t *testing.T) {
	lim := sim.MaxDelayTicks
	for _, spec := range []string{
		fmt.Sprintf("uniform:1-%d", lim), fmt.Sprintf("geo:0.5@%d", lim),
		fmt.Sprintf("region:2/%d/1", lim), fmt.Sprintf("gst:8/uniform:%d-%d", lim, lim),
	} {
		if m, err := sim.ParseDelayModel(spec); err != nil || m.MaxDelay() != lim {
			t.Errorf("ParseDelayModel(%q) = %v, %v; want a model bounded at the %d-tick limit", spec, m, err, lim)
		}
	}
	for _, c := range []struct {
		spec  string
		bound int
	}{
		{fmt.Sprintf("uniform:1-%d", lim+1), lim + 1},
		{"uniform:1-100000000", 100000000},
		{"geo:0.5@4000000", 4000000},
		{fmt.Sprintf("region:2/1/%d", lim+1), lim + 1},
		{"gst:8/uniform:1-400000", 400000},
	} {
		m, err := sim.ParseDelayModel(c.spec)
		var be *sim.DelayBoundError
		if !errors.As(err, &be) || be.Bound != c.bound {
			t.Errorf("ParseDelayModel(%q) = %v, %v; want a *DelayBoundError at bound %d", c.spec, m, err, c.bound)
		}
	}
}

// TestVTRingBudget: Run refuses a hand-built delay model whose delivery
// ring would exceed sim.MaxRingBytes with a *RingBudgetError, and
// allocates none of the ring first — ReserveInbox, a best-effort hint,
// must not build it either. Bounds that would overflow the window
// arithmetic are refused the same way. A bound at the parse limit fits
// a small network but not one just past the budget, so the budget, not
// the parse limit, is what stops a huge ring at scale.
func TestVTRingBudget(t *testing.T) {
	engine := func(n int, m sim.DelayModel) *sim.Engine {
		t.Helper()
		lat, err := graph.NewRingLattice(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New(lat)
		eng.SetDelayModel(m)
		procs := make([]sim.Proc, n)
		for v := range procs {
			procs[v] = byzantine.Silent{}
		}
		if err := eng.Attach(procs); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for _, m := range []sim.DelayModel{
		sim.UniformDelay{Min: 1, Max: 100_000_000},
		sim.GeometricDelay{P: 0.5, Cap: math.MaxInt},
		sim.GSTDelay{GST: 4, Inner: sim.RegionDelay{Regions: 2, Near: 1, Far: 1 << 30}},
	} {
		eng := engine(64, m)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.ReserveInbox(8)
		_, err := eng.Run(4)
		runtime.ReadMemStats(&after)
		var rb *sim.RingBudgetError
		if !errors.As(err, &rb) || rb.MaxDelay != m.MaxDelay() || rb.Slots != 64 {
			t.Errorf("%s: Run error %v, want a *RingBudgetError for max delay %d on 64 slots", m.Name(), err, m.MaxDelay())
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Errorf("%s: refusing the ring allocated %d bytes", m.Name(), b)
		}
	}
	atLimit, err := sim.ParseDelayModel(fmt.Sprintf("uniform:1-%d", sim.MaxDelayTicks))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine(64, atLimit).Run(2); err != nil {
		t.Errorf("%s on 64 slots: %v", atLimit.Name(), err)
	}
	// The smallest slot count whose ring headers ([]Incoming, three
	// words each) exceed the budget at the parse limit.
	over := sim.MaxRingBytes/(3*strconv.IntSize/8)/(sim.MaxDelayTicks+1) + 1
	var rb *sim.RingBudgetError
	if _, err := engine(over, atLimit).Run(2); !errors.As(err, &rb) {
		t.Errorf("%s on %d slots: Run error %v, want a *RingBudgetError", atLimit.Name(), over, err)
	}
}

// stepCounter counts the Steps of every proc sharing it.
type stepCounter struct{ steps *atomic.Int64 }

func (p stepCounter) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	p.steps.Add(1)
	return nil
}

func (stepCounter) Halted() bool { return false }

// TestVTBucketBudget: each of a parallel pushing engine's w step
// workers keeps w·MaxDelay outbox bucket headers, and Run refuses a
// worker count whose table would exceed sim.MaxRingBytes with a
// *RingBudgetError naming the workers, before it allocates any of it or
// steps a proc. Under uniform:1-1024 on 4,096 slots the ring (1025 x
// 4096 headers, 100 MB) fits, but 210 workers need 210 x 210 x 1024
// bucket headers, 1.08 GB.
func TestVTBucketBudget(t *testing.T) {
	const n, workers = 4096, 210
	lat, err := graph.NewRingLattice(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	delay, err := sim.ParseDelayModel("uniform:1-1024")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(lat)
	eng.SetDelayModel(delay)
	eng.SetParallelism(workers)
	var steps atomic.Int64
	procs := make([]sim.Proc, n)
	for v := range procs {
		procs[v] = stepCounter{&steps}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rounds, err := eng.Run(1)
	runtime.ReadMemStats(&after)
	var rb *sim.RingBudgetError
	if !errors.As(err, &rb) || !strings.Contains(err.Error(), fmt.Sprintf("on %d workers", workers)) {
		t.Errorf("Run error %v, want a *RingBudgetError naming %d workers", err, workers)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Errorf("refusing the buckets allocated %d bytes", b)
	}
	if rounds != 0 || steps.Load() != 0 {
		t.Errorf("Run executed %d rounds and %d Steps, want none", rounds, steps.Load())
	}
}

// TestParseFaultModel is TestParseDelayModel's fault-side counterpart.
func TestParseFaultModel(t *testing.T) {
	valid := []string{"drop:0.1", "drop:1", "partition:2@10", "partition:3@5-40"}
	for _, spec := range valid {
		m, err := sim.ParseFaultModel(spec)
		if err != nil {
			t.Errorf("ParseFaultModel(%q): %v", spec, err)
			continue
		}
		if m.Name() != spec {
			t.Errorf("ParseFaultModel(%q).Name() = %q, want round-trip", spec, m.Name())
		}
	}
	for _, spec := range []string{"", "none"} {
		if m, err := sim.ParseFaultModel(spec); err != nil || m != nil {
			t.Errorf("ParseFaultModel(%q) = %v, %v; want nil, nil", spec, m, err)
		}
	}
	invalid := []string{"bogus", "drop:", "drop:1.5", "drop:-0.1", "partition:1@5", "partition:2@5-3", "partition:2@-1", "partition:2",
		"drop:NaN", "partition:2@0-0"}
	for _, spec := range invalid {
		if _, err := sim.ParseFaultModel(spec); err == nil {
			t.Errorf("ParseFaultModel(%q): expected error", spec)
		}
	}
}

// TestVTNewDispatch pins that New draws IDs the same way over every
// topology: an engine over a *graph.Graph and one over a
// dynamic.Network assign identical IDs from the same seed (what lets a
// static run be re-hosted on a mutable topology without re-deriving
// anything).
func TestVTNewDispatch(t *testing.T) {
	g := mustHND(t, 64, 4, 3)
	a := sim.New(g, sim.WithSeed(77))
	net, err := dynamic.NewNetwork(64, 4, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	d := sim.New(net, sim.WithSeed(77))
	if a.Slots() != d.Slots() || a.ID(0) != d.ID(0) {
		t.Fatalf("topologies disagree: slots %d/%d id %d/%d", a.Slots(), d.Slots(), a.ID(0), d.ID(0))
	}
}
