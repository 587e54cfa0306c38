package sim_test

// Tests for the virtual-time delivery paths on a relay workload: the
// transcript and metrics are identical at every worker count, and the
// fault/delay boundary cases — drop p=1, a partition spanning the whole
// run, window=2 unit degeneration, out-of-range hand-built delay
// models — must be visible in Metrics instead of silently reshaped.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"byzcount/internal/sim"
	"byzcount/internal/xrand"
)

// hopPayload is the test workload's payload; SizeBits encodes the hop
// tag so the default arm of foldTranscript distinguishes payloads.
type hopPayload struct{ hops int }

func (p hopPayload) SizeBits() int { return 64 + p.hops }

// tokenInjector is the round-driven seeder: it broadcasts one payload
// in its first Step and halts.
type tokenInjector struct{ fired bool }

func (p *tokenInjector) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if p.fired {
		return nil
	}
	p.fired = true
	return env.Broadcast(hopPayload{hops: 2})
}

func (p *tokenInjector) Halted() bool { return p.fired }

// foldRelay is the transcript relay: on a non-empty inbox it folds the
// delivered messages into its digest, counts cross-parity arrivals (the
// whole-run partition test's invariant), and forwards each message to a
// deterministically rotating neighbor so traffic circulates
// indefinitely. On an empty inbox it does nothing.
type foldRelay struct {
	sum    uint64
	parity int64
}

func (p *foldRelay) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	if len(in) == 0 {
		return nil
	}
	p.sum = foldTranscript(p.sum, round, env, false, in)
	for _, m := range in {
		if (m.From+env.Vertex)%2 == 1 {
			p.parity++
		}
	}
	out := env.Scratch()
	for i, m := range in {
		to := env.Neighbors[(round+i)%env.Degree]
		out = append(out, sim.Outgoing{To: to, Payload: m.Payload})
	}
	return out
}

func (p *foldRelay) Halted() bool { return false }

// sparseRun is one execution of the token-forwarding workload: an
// injector at vertex 0, transcript relays everywhere else.
type sparseRun struct {
	digest  string
	parity  int64
	metrics sim.Metrics
}

// runSparseWorkload executes the workload on H(64,8) for the given
// configuration and returns the combined per-vertex digest plus final
// metrics. churn installs a between-rounds hook that recycles one relay
// slot every 8 rounds — Detach (dropping its in-flight deliveries),
// then AttachAt with the same ID and a fresh relay — a schedule that is
// a pure function of the round index, so it is identical across worker
// counts.
func runSparseWorkload(t *testing.T, workers int, delaySpec, faultSpec string, churn bool, rounds int) sparseRun {
	t.Helper()
	const n, d = 64, 8
	g := mustHND(t, n, d, 1201)
	delay, err := sim.ParseDelayModel(delaySpec)
	if err != nil {
		t.Fatal(err)
	}
	fault, err := sim.ParseFaultModel(faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(9))
	eng.SetParallelism(workers)
	eng.SetDelayModel(delay)
	eng.SetFaultModel(fault)
	procs := make([]sim.Proc, n)
	sums := make([]*uint64, n)
	parities := make([]*int64, n)
	procs[0] = &tokenInjector{}
	zero := uint64(0)
	zeroP := int64(0)
	sums[0], parities[0] = &zero, &zeroP
	for v := 1; v < n; v++ {
		p := &foldRelay{}
		sums[v], parities[v] = &p.sum, &p.parity
		procs[v] = p
	}
	if churn {
		eng.SetBetweenRounds(func(round int) error {
			if round%8 != 5 {
				return nil
			}
			v := 1 + (round/8)%(n-1)
			id := eng.ID(v)
			if err := eng.Detach(v); err != nil {
				return err
			}
			// The recycled slot's digest restarts from zero — identically
			// in every configuration, since the schedule is fixed.
			p := &foldRelay{}
			sums[v], parities[v] = &p.sum, &p.parity
			return eng.AttachAt(v, id, p)
		})
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(rounds); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	var parity int64
	for v := 0; v < n; v++ {
		for i := 0; i < 8; i++ {
			buf[i] = byte(*sums[v] >> (8 * i))
		}
		h.Write(buf[:])
		parity += *parities[v]
	}
	return sparseRun{
		digest:  fmt.Sprintf("%016x", h.Sum64()),
		parity:  parity,
		metrics: eng.Metrics(),
	}
}

// TestVTSkipTranscriptEquality sweeps every E19 delay spec against
// every E20 fault spec, with and without membership churn, and pins the
// workload's transcript digest and metrics of the parallel engine at
// workers 3 and 8 to the serial run's.
func TestVTSkipTranscriptEquality(t *testing.T) {
	delays := []string{"unit", "gst:8/uniform:1-6", "gst:32/uniform:1-6", "uniform:1-6"}
	faults := []string{"none", "partition:2@10-40", "partition:2@10-70", "partition:2@10"}
	const rounds = 96
	for _, ds := range delays {
		for _, fs := range faults {
			for _, churn := range []bool{false, true} {
				name := ds + "/" + fs
				if churn {
					name += "/churn"
				}
				t.Run(name, func(t *testing.T) {
					ref := runSparseWorkload(t, 1, ds, fs, churn, rounds)
					for _, workers := range []int{3, 8} {
						got := runSparseWorkload(t, workers, ds, fs, churn, rounds)
						if got.digest != ref.digest {
							t.Errorf("workers-%d: digest %s != serial %s", workers, got.digest, ref.digest)
						}
						if !reflect.DeepEqual(got.metrics, ref.metrics) {
							t.Errorf("workers-%d: metrics diverge:\n got %+v\nwant %+v", workers, got.metrics, ref.metrics)
						}
					}
				})
			}
		}
	}
}

// TestVTDropAllTerminates: drop p=1 admits nothing — the injector's
// burst is faulted away, no proc ever receives a message, and the run
// must still terminate through the stop condition with the fault ledger
// (not the delivery ledger) carrying the traffic.
func TestVTDropAllTerminates(t *testing.T) {
	const n, d = 64, 8
	g := mustHND(t, n, d, 1201)
	delay, err := sim.ParseDelayModel("uniform:1-4")
	if err != nil {
		t.Fatal(err)
	}
	fault, err := sim.ParseFaultModel("drop:1")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(9))
	eng.SetDelayModel(delay)
	eng.SetFaultModel(fault)
	procs := make([]sim.Proc, n)
	procs[0] = &tokenInjector{}
	for v := 1; v < n; v++ {
		procs[v] = &foldRelay{}
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	eng.SetStopCondition(func(round int) bool { return round >= 30 })
	rounds, err := eng.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if rounds != 31 {
		t.Errorf("stop condition fired after %d rounds, want 31", rounds)
	}
	if m.Messages != 0 {
		t.Errorf("%d messages delivered under drop p=1, want 0", m.Messages)
	}
	if m.Dropped != int64(d) {
		t.Errorf("Dropped = %d, want %d (the injector's burst)", m.Dropped, d)
	}
	if m.TicksSkipped != 0 {
		t.Errorf("skipped %d ticks", m.TicksSkipped)
	}
}

// lateBeacon is round-driven: it broadcasts in its second Step and has
// halted after it.
type lateBeacon struct{ steps int }

func (p *lateBeacon) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	p.steps++
	if p.steps == 2 {
		return env.Broadcast(hopPayload{hops: 1})
	}
	return nil
}

func (p *lateBeacon) Halted() bool { return p.steps >= 2 }

// haltOnMail halts in the Step that delivers its first message.
type haltOnMail struct{ got bool }

func (p *haltOnMail) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	p.got = p.got || len(in) > 0
	return nil
}

func (p *haltOnMail) Halted() bool { return p.got }

// haltedProc has halted before the run starts.
type haltedProc struct{}

func (haltedProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing { return nil }
func (haltedProc) Halted() bool                                                   { return true }

// TestHookAttachedTickDrivenHalt: a between-rounds hook swaps a
// neighbor of a late beacon for a proc that halts on its first message.
// The joiner is live at the round whose messages halt it, so the run
// ends one round later, serially and on three workers (every vertex
// stepped, messages pushed through the ring because of the hook).
func TestHookAttachedTickDrivenHalt(t *testing.T) {
	const n = 16
	g := mustHND(t, n, 4, 1201)
	joiner := g.Neighbors(0)[0]
	for _, workers := range []int{1, 3} {
		eng := sim.New(g, sim.WithSeed(9))
		eng.SetParallelism(workers)
		procs := make([]sim.Proc, n)
		procs[0] = &lateBeacon{}
		for v := 1; v < n; v++ {
			procs[v] = haltedProc{}
		}
		eng.SetBetweenRounds(func(round int) error {
			if round != 0 {
				return nil
			}
			id := eng.ID(joiner)
			if err := eng.Detach(joiner); err != nil {
				return err
			}
			return eng.AttachAt(joiner, id, &haltOnMail{})
		})
		if err := eng.Attach(procs); err != nil {
			t.Fatal(err)
		}
		rounds, err := eng.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		if rounds != 3 {
			t.Errorf("workers=%d: Run returned %d, want 3", workers, rounds)
		}
	}
}

// TestVTWholeRunPartition: a partition from tick 0 that never heals
// must suppress every cross-parity delivery for the entire run — the
// parity counter folded by every relay stays zero while the intra-group
// traffic keeps flowing.
func TestVTWholeRunPartition(t *testing.T) {
	got := runSparseWorkload(t, 1, "uniform:1-4", "partition:2@0", false, 96)
	if got.parity != 0 {
		t.Errorf("%d cross-parity deliveries under a whole-run partition, want 0", got.parity)
	}
	if got.metrics.Dropped == 0 {
		t.Error("whole-run partition dropped nothing; the cut never engaged")
	}
	if got.metrics.Messages == 0 {
		t.Error("no intra-group deliveries; the workload died instead of routing around the cut")
	}
}

// flooder broadcasts every round — the window=2 degeneration workload.
type flooder struct{}

func (*flooder) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	return env.Broadcast(hopPayload{hops: 1})
}

func (*flooder) Halted() bool { return false }

// runFloodDigest executes a 24-round flood on H(48,6) under the given
// delay model spec ("" = no model installed) and returns the transcript
// digest.
func runFloodDigest(t *testing.T, delaySpec string) string {
	t.Helper()
	const n, d = 48, 6
	g := mustHND(t, n, d, 1301)
	delay, err := sim.ParseDelayModel(delaySpec)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, sim.WithSeed(11))
	eng.SetDelayModel(delay)
	procs := make([]sim.Proc, n)
	recs := make([]*transcriptProc, n)
	for v := range procs {
		recs[v] = &transcriptProc{inner: &flooder{}}
		procs[v] = recs[v]
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(24); err != nil {
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

// TestVTWindowTwoDegeneration: no model, "unit" and uniform:1-1 are
// three spellings of the fixed next-tick schedule — the minimal
// window=2 ring — and must produce the same transcript, byte-for-byte.
func TestVTWindowTwoDegeneration(t *testing.T) {
	none := runFloodDigest(t, "")
	unit := runFloodDigest(t, "unit")
	fixed := runFloodDigest(t, "uniform:1-1")
	if unit != none {
		t.Errorf("unit digest %s != no-model digest %s", unit, none)
	}
	if fixed != none {
		t.Errorf("uniform:1-1 digest %s != no-model digest %s", fixed, none)
	}
}

// skewDelay is a deliberately misbehaving hand-built DelayModel: it
// declares MaxDelay 3 but returns 0 or 7 — both outside [1, 3].
type skewDelay struct{}

func (skewDelay) Name() string  { return "skew" }
func (skewDelay) MaxDelay() int { return 3 }
func (skewDelay) Draws() bool   { return false }
func (skewDelay) Delay(rng *xrand.Rand, round, from, to int) int {
	if (round+from)%2 == 0 {
		return 0
	}
	return 7
}

// clampedDelay is skewDelay's in-range twin: it returns the values the
// engine must clamp skewDelay's results to (0 -> 1, 7 -> 3).
type clampedDelay struct{}

func (clampedDelay) Name() string  { return "clamped" }
func (clampedDelay) MaxDelay() int { return 3 }
func (clampedDelay) Draws() bool   { return false }
func (clampedDelay) Delay(rng *xrand.Rand, round, from, to int) int {
	if (round+from)%2 == 0 {
		return 1
	}
	return 3
}

// runModelDigest executes the flood with a hand-built model installed
// and returns the digest plus final metrics.
func runModelDigest(t *testing.T, m sim.DelayModel) (string, sim.Metrics) {
	t.Helper()
	const n, d = 48, 6
	g := mustHND(t, n, d, 1301)
	eng := sim.New(g, sim.WithSeed(11))
	eng.SetDelayModel(m)
	procs := make([]sim.Proc, n)
	recs := make([]*transcriptProc, n)
	for v := range procs {
		recs[v] = &transcriptProc{inner: &flooder{}}
		procs[v] = recs[v]
	}
	if err := eng.Attach(procs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(24); err != nil {
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

// TestVTDelayClampCounted: a model returning latencies outside
// [1, MaxDelay] is clamped into range (so schedules match the in-range
// twin exactly) and every clamp is counted in Metrics.DelayClamped —
// the misconfiguration is visible, not silently reshaped.
func TestVTDelayClampCounted(t *testing.T) {
	skewDigest, skewM := runModelDigest(t, skewDelay{})
	cleanDigest, cleanM := runModelDigest(t, clampedDelay{})
	if skewDigest != cleanDigest {
		t.Errorf("clamped skew digest %s != in-range twin digest %s", skewDigest, cleanDigest)
	}
	if cleanM.DelayClamped != 0 {
		t.Errorf("in-range model counted %d clamps, want 0", cleanM.DelayClamped)
	}
	// Every skew draw is out of range, so every sent message (delivered
	// or still in flight at the end) must have been counted. 24 rounds
	// of full broadcast send 24*n*d messages.
	if want := int64(24 * 48 * 6); skewM.DelayClamped != want {
		t.Errorf("DelayClamped = %d, want %d (every message clamps)", skewM.DelayClamped, want)
	}
	if skewM.TicksSkipped != 0 || cleanM.TicksSkipped != 0 {
		t.Error("round-driven flood must never skip ticks")
	}
}
