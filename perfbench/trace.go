package main

// The traced run. It rebuilds each sweep and scale cell from the layers'
// exported calls, in the order and with the split labels of
// runScenarioStatic, runScenarioChurn, runScenarioImplicit and
// runDurable, and times each call; the tables workload gets one span per
// expt.Run. It runs serially (Parallel=1, Workers=1), so the spans are
// disjoint and the layers' self times plus expt.driver_s add up to the
// traced wall time. selftest.go checks that the rebuild still computes
// what the program computes.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/dynamic"
	"byzcount/internal/expt"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/stats"
	"byzcount/internal/sweep"
	"byzcount/internal/xrand"
)

// stepClock accumulates the Step calls of one layer's procs.
type stepClock struct {
	d time.Duration
	n int64
}

// timedProc is the timing shim around a proc. It forwards Step, Halted
// and Outcome (a zero Outcome for non-estimators, which is what
// counting.Outcomes yields for them), and the marker variants below
// carry exactly the engine markers the inner proc has.
type timedProc struct {
	inner sim.Proc
	est   counting.Estimator
	clk   *stepClock
}

func (p *timedProc) Step(env *sim.Env, round int, in []sim.Incoming) []sim.Outgoing {
	t := time.Now()
	out := p.inner.Step(env, round, in)
	p.clk.d += time.Since(t)
	p.clk.n++
	return out
}

func (p *timedProc) Halted() bool { return p.inner.Halted() }

func (p *timedProc) Outcome() counting.Outcome {
	if p.est == nil {
		return counting.Outcome{}
	}
	return p.est.Outcome()
}

type timedTickProc struct{ *timedProc }

func (timedTickProc) StepsOnMessagesOnly() {}

type timedSeqProc struct{ *timedProc }

func (timedSeqProc) StepsSequentially() {}

type timedTickSeqProc struct{ *timedProc }

func (timedTickSeqProc) StepsOnMessagesOnly() {}
func (timedTickSeqProc) StepsSequentially()   {}

func timed(p sim.Proc, clk *stepClock) sim.Proc {
	t := &timedProc{inner: p, clk: clk}
	t.est, _ = p.(counting.Estimator)
	_, tick := p.(sim.TickDriven)
	_, seq := p.(sim.Sequential)
	switch {
	case tick && seq:
		return timedTickSeqProc{t}
	case tick:
		return timedTickProc{t}
	case seq:
		return timedSeqProc{t}
	}
	return t
}

// heapAllocs reads the cumulative heap allocation count (tiny allocations
// included, as runtime.MemStats.Mallocs counts them) and bytes.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// tracer accumulates the per-layer spans of one traced run.
type tracer struct {
	graphBuild, dynBuild, place, construct, run time.Duration
	append_, sync, replay, aggregate, render    time.Duration
	cellTime                                    time.Duration
	builds, cells, appends                      int64
	rounds, msgs                                int64
	runAllocs, runBytes                         uint64
	honest, byz                                 stepClock
}

// span times fn into *acc.
func span(acc *time.Duration, fn func() error) error {
	t := time.Now()
	err := fn()
	*acc += time.Since(t)
	return err
}

// cellOutput is what a rebuilt cell yields, the fields of
// expt.ScenarioOutcome the workloads read.
type cellOutput struct {
	outcomes []counting.Outcome
	honest   []bool
	rounds   int
	metrics  sim.Metrics
}

func (c cellOutput) digest() string {
	return outcomeDigest(c.outcomes, c.honest, c.rounds, c.metrics)
}

// byzBudget mirrors Scenario.byzBudget.
func byzBudget(sc expt.Scenario) (int, float64) {
	switch {
	case sc.ByzFrac > 0:
		return int(math.Round(sc.ByzFrac * float64(sc.N))), sc.ByzFrac
	case sc.Byz > 0:
		return sc.Byz, float64(sc.Byz) / float64(sc.N)
	}
	return 0, 0
}

// cell rebuilds expt.RunScenario(sc, rng, RunOptions{}) for the axes the
// workloads use (congest; adversary none or spam) and rejects the rest.
func (tr *tracer) cell(sc expt.Scenario, rng *xrand.Rand) (cellOutput, error) {
	if err := sc.Validate(); err != nil {
		return cellOutput{}, err
	}
	if sc.Proto != "congest" || (sc.Adversary != "none" && sc.Adversary != "spam") ||
		sc.Substrate == "" || sc.Placement == "" || sc.N == 0 || sc.D == 0 || sc.ByzJoiners > 0 {
		return cellOutput{}, fmt.Errorf("perfbench: the rebuild does not cover cell %+v", sc)
	}
	start := time.Now()
	defer func() { tr.cellTime += time.Since(start); tr.cells++ }()
	params := counting.DefaultCongestParams(sc.D)
	if sc.MaxPhase > 0 {
		params.MaxPhase = sc.MaxPhase
	}
	maxRounds := sc.MaxRounds
	if maxRounds == 0 {
		maxRounds = params.Schedule.RoundsThroughPhase(params.MaxPhase + 1)
	}
	honestProc := func() sim.Proc { return timed(counting.NewCongestProc(params), &tr.honest) }
	byzProc := func(v int) sim.Proc {
		return timed(byzantine.NewBeaconSpammer(params.Schedule, 6, false, rng.SplitN("spam", v)), &tr.byz)
	}
	delay, _ := sim.ParseDelayModel(sc.Delay)
	fault, _ := sim.ParseFaultModel(sc.Fault)
	if sc.Churn.Active() || sc.Dynamic {
		return tr.churnCell(sc, rng, honestProc, byzProc, delay, fault, maxRounds)
	}

	sub := expt.Substrates[sc.Substrate]
	grng := rng.Split("graph")
	var topo sim.Topology
	err := span(&tr.graphBuild, func() error {
		var err error
		if sub.Implicit != nil {
			topo, err = sub.Implicit(sc.N, sc.D)
		} else {
			var g *graph.Graph
			g, err = sub.Build(sc.N, sc.D, grng)
			topo = g
		}
		return err
	})
	if err != nil {
		return cellOutput{}, err
	}
	tr.builds++
	count, _ := byzBudget(sc)
	byz := make([]bool, topo.Slots())
	if count > 0 {
		if err := span(&tr.place, func() error {
			var err error
			byz, err = expt.Placements[sc.Placement](topo, count, rng.Split("place"))
			return err
		}); err != nil {
			return cellOutput{}, err
		}
	}
	n := topo.Slots()
	procs := make([]sim.Proc, n)
	honest := make([]bool, n)
	var eng *sim.Engine
	if err := span(&tr.construct, func() error {
		eng = sim.New(topo, sim.WithSeed(rng.Split("run").Uint64()))
		if delay != nil {
			eng.SetDelayModel(delay)
		}
		if fault != nil {
			eng.SetFaultModel(fault)
		}
		eng.SetParallelism(1)
		for v := range procs {
			if byz[v] {
				procs[v] = byzProc(v)
			} else {
				procs[v] = honestProc()
				honest[v] = true
			}
		}
		return eng.Attach(procs)
	}); err != nil {
		return cellOutput{}, err
	}
	if sc.StopFrac > 0 {
		honestTotal := 0
		for _, h := range honest {
			if h {
				honestTotal++
			}
		}
		eng.SetStopCondition(func(round int) bool {
			decided := 0
			for v, p := range procs {
				if !honest[v] {
					continue
				}
				if e, ok := p.(counting.Estimator); ok && e.Outcome().Decided {
					decided++
				}
			}
			return honestTotal == 0 || float64(decided) >= sc.StopFrac*float64(honestTotal)
		})
	}
	rounds, err := tr.runEngine(func() (int, error) { return eng.Run(maxRounds) })
	if err != nil {
		return cellOutput{}, err
	}
	out := cellOutput{outcomes: counting.Outcomes(procs), honest: honest, rounds: rounds, metrics: eng.Metrics()}
	tr.account(out.metrics)
	return out, nil
}

// churnCell mirrors runScenarioChurn.
func (tr *tracer) churnCell(sc expt.Scenario, rng *xrand.Rand, honestProc func() sim.Proc,
	byzProc func(v int) sim.Proc, delay sim.DelayModel, fault sim.FaultModel, maxRounds int) (cellOutput, error) {
	var net *dynamic.Network
	if err := span(&tr.dynBuild, func() error {
		var err error
		net, err = dynamic.NewNetwork(sc.N, sc.D, rng.Split("net"))
		return err
	}); err != nil {
		return cellOutput{}, err
	}
	count, target := byzBudget(sc)
	mask := make([]bool, net.Slots())
	var roster *byzantine.Roster
	if err := span(&tr.place, func() error {
		var err error
		if count > 0 {
			if mask, err = expt.Placements[sc.Placement](net, count, rng.Split("place")); err != nil {
				return err
			}
		}
		roster, err = byzantine.NewRoster(mask, net.NumAlive(), target, rng.Split("roster"))
		return err
	}); err != nil {
		return cellOutput{}, err
	}
	initial := true
	factory := func(slot dynamic.Slot, id sim.NodeID) sim.Proc {
		isByz := roster.IsByz(slot)
		if !initial {
			isByz = roster.OnJoin(slot)
		}
		if isByz {
			return byzProc(slot)
		}
		return honestProc()
	}
	var run *dynamic.Runner
	if err := span(&tr.dynBuild, func() error {
		var err error
		run, err = dynamic.NewRunner(net,
			dynamic.Churn{Leaves: sc.Churn.Leaves, Joins: sc.Churn.Joins,
				StopAfter: sc.Churn.StopAfter, Mixed: sc.Churn.Mixed},
			rng.Split("eng").Uint64(), factory)
		return err
	}); err != nil {
		return cellOutput{}, err
	}
	initial = false
	run.SetLeaveHook(roster.OnLeave)
	run.SetParallelism(1)
	if delay != nil {
		run.SetDelayModel(delay)
	}
	if fault != nil {
		run.SetFaultModel(fault)
	}
	if sc.StopFrac > 0 {
		eng := run.Engine()
		eng.SetStopCondition(func(round int) bool {
			honestTotal, decided := 0, 0
			for s := 0; s < eng.Slots(); s++ {
				if !net.Alive(s) || roster.IsByz(s) {
					continue
				}
				honestTotal++
				if e, ok := eng.Proc(s).(counting.Estimator); ok && e.Outcome().Decided {
					decided++
				}
			}
			return honestTotal == 0 || float64(decided) >= sc.StopFrac*float64(honestTotal)
		})
	}
	rounds, err := tr.runEngine(func() (int, error) { return run.Run(maxRounds) })
	if err != nil {
		return cellOutput{}, err
	}
	if err := net.Validate(); err != nil {
		return cellOutput{}, fmt.Errorf("perfbench: topology invariant broken after run: %w", err)
	}
	procs, slots := run.AliveProcs()
	honest := make([]bool, len(procs))
	for i, s := range slots {
		honest[i] = !roster.IsByz(s)
	}
	out := cellOutput{outcomes: counting.Outcomes(procs), honest: honest, rounds: rounds, metrics: run.Metrics()}
	tr.account(out.metrics)
	return out, nil
}

// runEngine times an engine Run with its heap allocations.
func (tr *tracer) runEngine(run func() (int, error)) (int, error) {
	o0, b0 := heapAllocs()
	t := time.Now()
	rounds, err := run()
	tr.run += time.Since(t)
	o1, b1 := heapAllocs()
	tr.runAllocs += o1 - o0
	tr.runBytes += b1 - b0
	return rounds, err
}

func (tr *tracer) account(m sim.Metrics) {
	tr.rounds += int64(m.Rounds)
	tr.msgs += m.Messages
}

// matrixCell mirrors matrixCellVals: the metric vector of one sweep
// cell, in the order of the manifest's columns.
func matrixCell(sc expt.Scenario, out cellOutput) []float64 {
	vals := make([]float64, 6) // byz, rounds, decided_frac, bounded_frac, median_est, msgs
	vals[1] = float64(out.rounds)
	vals[5] = float64(out.metrics.Messages)
	logd := counting.LogD(sc.N, sc.D)
	honestTotal, dec, bnd := 0, 0, 0
	for i, o := range out.outcomes {
		if !out.honest[i] {
			vals[0]++
			continue
		}
		honestTotal++
		if !o.Decided {
			continue
		}
		dec++
		if float64(o.Estimate) >= 0.5*logd && float64(o.Estimate) <= 2*logd+2 {
			bnd++
		}
	}
	if honestTotal > 0 {
		vals[2] = float64(dec) / float64(honestTotal)
		vals[3] = float64(bnd) / float64(honestTotal)
	}
	vals[4] = stats.Median(stats.Ints(counting.DecidedEstimates(out.outcomes, out.honest)))
	return vals
}

// tracedSweep rebuilds runDurable serially: every (row, trial) cell in
// order, each appended to the cell log and fed to its row's aggregates,
// then a replay of the full log and the rendered table, written to
// dir/table.txt. It returns the table text.
func (tr *tracer) tracedSweep(m expt.Matrix, seed uint64, trials int, dir string) (string, error) {
	// The manifest, checkpoint and summary.jsonl that runDurable also
	// writes are left out: none of them feeds table.txt.
	scs, skipped, err := m.Scenarios()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var log *sweep.Log
	if err := span(&tr.append_, func() error {
		var err error
		log, _, err = sweep.OpenLog(dir)
		return err
	}); err != nil {
		return "", err
	}
	defer log.Close()
	root := xrand.New(seed)
	aggs := make([][6]stats.Online, len(scs))
	for i, sc := range scs {
		label := sc.Label()
		for t := 0; t < trials; t++ {
			out, err := tr.cell(sc, root.SplitN(label, t))
			if err != nil {
				return "", fmt.Errorf("cell %s trial %d: %w", label, t, err)
			}
			vals := matrixCell(sc, out)
			rec := sweep.Record{Row: label, Trial: t, Seed: root.SplitN(label, t).Seed(),
				Vals: sweep.PackFloats(vals), Attempts: 1}
			if err := span(&tr.append_, func() error { return log.Append(rec) }); err != nil {
				return "", err
			}
			tr.appends++
			span(&tr.aggregate, func() error {
				for k, v := range vals {
					aggs[i][k].Add(v)
				}
				return nil
			})
		}
	}
	if err := span(&tr.sync, log.Sync); err != nil {
		return "", err
	}
	var replayed []sweep.Record
	if err := span(&tr.replay, func() error {
		l, recs, err := sweep.OpenLog(dir)
		if err != nil {
			return err
		}
		replayed = recs
		return l.Close()
	}); err != nil {
		return "", err
	}
	if len(replayed) != len(scs)*trials {
		return "", fmt.Errorf("replayed %d records, want %d", len(replayed), len(scs)*trials)
	}
	var text string
	err = span(&tr.render, func() error {
		t := &expt.Table{
			ID:      "matrix",
			Title:   fmt.Sprintf("Scenario matrix: %d cells x %d trials", len(scs), trials),
			Columns: []string{"scenario", "byz", "rounds", "decided_frac", "bounded_frac", "median_est", "log_d(n)", "msgs"},
			Notes: []string{
				"bounded_frac uses the CONGEST band [0.5*log_d n, 2*log_d n + 2]; interpret it per protocol",
				"each cell's randomness is the pure sub-seed of its label: adding or removing cells never perturbs the others"},
		}
		if skipped > 0 {
			t.Notes = append(t.Notes,
				fmt.Sprintf("%d cells of the requested cross-product were skipped as incompatible axis combinations", skipped))
		}
		for i, sc := range scs {
			a := &aggs[i]
			t.AddRow(sc.Label(), a[0].SumMean(), a[1].SumMean(), a[2].SumMean(), a[3].SumMean(),
				a[4].SumMean(), counting.LogD(sc.N, sc.D), a[5].SumMean())
		}
		text = t.Render()
		return os.WriteFile(filepath.Join(dir, "table.txt"), []byte(text), 0o644)
	})
	return text, err
}

// layers converts the spans into the per-layer metrics; wall is the
// traced wall time and exptSpans the tables workload's expt.Run spans.
// The spans are disjoint (sim.self_s is Run minus its Step spans), so
// expt.driver_s, the wall time no layer span covers, is never negative
// unless two spans overlap.
func (tr *tracer) layers(wall time.Duration, exptSpans time.Duration) map[string]float64 {
	self := tr.run - tr.honest.d - tr.byz.d
	l := map[string]float64{
		"expt.cells":        float64(tr.cells),
		"graph.build_s":     tr.graphBuild.Seconds(),
		"graph.builds":      float64(tr.builds),
		"dynamic.build_s":   tr.dynBuild.Seconds(),
		"byzantine.place_s": tr.place.Seconds(),
		"byzantine.step_s":  tr.byz.d.Seconds(),
		"byzantine.steps":   float64(tr.byz.n),
		"counting.step_s":   tr.honest.d.Seconds(),
		"counting.steps":    float64(tr.honest.n),
		"sim.construct_s":   tr.construct.Seconds(),
		"sim.self_s":        self.Seconds(),
		"sim.rounds":        float64(tr.rounds),
		"sim.msgs":          float64(tr.msgs),
		"sim.run_allocs":    float64(tr.runAllocs),
		"sim.run_alloc_mb":  float64(tr.runBytes) / (1 << 20),
		"sweep.append_s":    tr.append_.Seconds(),
		"sweep.appends":     float64(tr.appends),
		"sweep.sync_s":      tr.sync.Seconds(),
		"sweep.replay_s":    tr.replay.Seconds(),
		"stats.aggregate_s": tr.aggregate.Seconds(),
		"report.render_s":   tr.render.Seconds(),
	}
	if tr.cells > 0 {
		l["expt.cell_s"] = tr.cellTime.Seconds() / float64(tr.cells)
	}
	if tr.msgs > 0 {
		l["sim.ns_per_msg"] = float64(self.Nanoseconds()) / float64(tr.msgs)
	}
	accounted := tr.graphBuild + tr.dynBuild + tr.place + tr.construct + tr.run +
		tr.append_ + tr.sync + tr.replay + tr.aggregate + tr.render + exptSpans
	l["expt.driver_s"] = (wall - accounted).Seconds()
	return l
}

// tracedTables times each expt.Run at Parallel=1 with its heap
// allocations; rendering is report.render_s.
func tracedTables(seed uint64) result {
	var res result
	var tr tracer
	cfg := expt.Config{Seed: seed, Trials: tablesTrials, Quick: true, Parallel: 1}
	perExpt := map[string]float64{}
	var exptSpans time.Duration
	all := sha256.New()
	start := time.Now()
	for _, id := range expt.IDs() {
		res.Attempted++
		o0, _ := heapAllocs()
		t := time.Now()
		tbl, err := expt.Run(id, cfg)
		d := time.Since(t)
		o1, _ := heapAllocs()
		exptSpans += d
		perExpt["expt."+id+"_s"] = d.Seconds()
		perExpt["expt."+id+"_allocs"] = float64(o1 - o0)
		if err != nil {
			res.Failed++
			res.fail("%s: %v", id, err)
			continue
		}
		span(&tr.render, func() error {
			all.Write([]byte(tbl.Render()))
			return nil
		})
	}
	wall := time.Since(start)
	res.Digest = hex.EncodeToString(all.Sum(nil))
	res.Wall = wall.Seconds()
	res.Layers = tr.layers(wall, exptSpans)
	for k, v := range perExpt {
		res.Layers[k] = v
	}
	return res
}

// tracedSweepRun is the sweep workload's traced run.
func tracedSweepRun(seed uint64, dir string) result {
	var res result
	var tr tracer
	start := time.Now()
	text, err := tr.tracedSweep(sweepMatrix(), seed, sweepTrials, dir)
	wall := time.Since(start)
	res.Attempted = int(tr.cells)
	if err != nil {
		res.Attempted++
		res.Failed = res.Attempted
		res.fail("traced sweep: %v", err)
		return res
	}
	res.Digest = hashHex([]byte(text))
	res.Wall = wall.Seconds()
	res.Layers = tr.layers(wall, 0)
	if fi, err := os.Stat(filepath.Join(dir, sweep.LogName)); err == nil {
		res.Layers["sweep.wal_bytes"] = float64(fi.Size())
	}
	return res
}

// tracedScale is the scale workload's traced run.
func tracedScale(seed uint64) result {
	res := result{Attempted: 1}
	var tr tracer
	start := time.Now()
	out, err := tr.cell(scaleScenario(), xrand.New(seed))
	wall := time.Since(start)
	if err != nil {
		res.Failed = 1
		res.fail("traced scale: %v", err)
		return res
	}
	res.Digest = out.digest()
	res.Wall = wall.Seconds()
	res.Layers = tr.layers(wall, 0)
	return res
}
