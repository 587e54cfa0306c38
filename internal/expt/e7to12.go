package expt

import (
	"fmt"
	"math"

	"byzcount/internal/agreement"
	"byzcount/internal/byzantine"
	"byzcount/internal/counting"
	"byzcount/internal/graph"
	"byzcount/internal/sim"
	"byzcount/internal/stats"
	"byzcount/internal/xrand"
)

// E7 — the blacklist ablation: with the mechanism of lines 20-32 off,
// beacon spam drags every node to the phase cap.
func E7(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Blacklisting ablation under beacon spam",
		Claim:   "Section 5: without blacklisting, Byzantine nodes keep generating beacons and good nodes overshoot log n before deciding",
		Columns: []string{"blacklist", "decided_frac", "mean_est", "inflated_frac", "rounds"},
	}
	const d, maxPhase = 8, 8
	n := 128
	root := xrand.New(cfg.Seed)
	disables := []bool{false, true}
	type res struct {
		decided, meanEst, inflated, rounds float64
	}
	results, err := sweepRows(cfg, root, disables,
		func(disable bool) string { return fmt.Sprintf("e7-%v", disable) },
		func(disable bool, trial int, rng *xrand.Rand) (res, error) {
			proto := "congest"
			if disable {
				proto = "congest-noblacklist"
			}
			r, err := RunScenario(Scenario{
				Proto: proto, Adversary: "spam",
				N: n, D: d, Byz: 2, MaxPhase: maxPhase, StopFrac: 1,
			}, rng, RunOptions{})
			if err != nil {
				return res{}, err
			}
			return res{
				decided: counting.DecidedFraction(r.Outcomes, r.Honest),
				meanEst: meanEstimate(r),
				inflated: counting.FractionWithinFactor(r.Outcomes, r.Honest,
					maxPhase, 1e18),
				rounds: float64(r.Rounds),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, disable := range disables {
		rs := results[i]
		label := "on"
		if disable {
			label = "off"
		}
		t.AddRow(label,
			stats.Mean(column(rs, func(r res) float64 { return r.decided })),
			stats.Mean(column(rs, func(r res) float64 { return r.meanEst })),
			stats.Mean(column(rs, func(r res) float64 { return r.inflated })),
			stats.Mean(column(rs, func(r res) float64 { return r.rounds })))
	}
	return t, nil
}

// E8 — Lemma 2: the locally tree-like fraction in H(n,d).
func E8(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Locally tree-like nodes in H(n,d)",
		Claim:   "Lemma 2: whp at least n - O(n^0.8) nodes are locally tree-like at radius log(n)/(10 log d)",
		Columns: []string{"n", "d", "radius", "treelike_frac", "1 - n^-0.2 (predicted floor)"},
	}
	root := xrand.New(cfg.Seed)
	ns := nSweep(cfg, []int{256, 512, 1024, 2048, 4096}, []int{256, 512})
	type row struct{ n, d int }
	var rows []row
	for _, n := range ns {
		for _, d := range []int{8, 16} {
			rows = append(rows, row{n, d})
		}
	}
	results, err := sweepRows(cfg, root, rows,
		func(rw row) string { return fmt.Sprintf("e8-%d-%d", rw.n, rw.d) },
		func(rw row, trial int, rng *xrand.Rand) (float64, error) {
			// Historical derivation: E8 builds from the trial stream
			// itself (not a "graph" split), and its published tables pin
			// that. The stream still satisfies hnd's substrate-cache
			// contract — it is dedicated to the build — so NOTHING else
			// in this closure may draw from rng, before or after.
			g, err := hnd(rw.n, rw.d, rng)
			if err != nil {
				return 0, err
			}
			return g.TreeLikeFraction(graph.TreeLikeRadius(rw.n, rw.d), rw.d), nil
		})
	if err != nil {
		return nil, err
	}
	for i, rw := range rows {
		r := graph.TreeLikeRadius(rw.n, rw.d)
		floor := 1 - 1/math.Pow(float64(rw.n), 0.2)
		t.AddRow(rw.n, rw.d, r, stats.Mean(results[i]), floor)
	}
	t.Notes = append(t.Notes,
		"the O() in Lemma 2 hides a constant; the trend (fraction -> 1 as n grows) is the claim under test")
	return t, nil
}

// E9 — message-size contrast between the two algorithms.
func E9(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Message sizes: LOCAL vs CONGEST",
		Claim:   "Section 1: Algorithm 1 needs polynomially large messages; Algorithm 2 keeps (most) messages at O(log n) bits",
		Columns: []string{"n", "local_total_Mbit", "local_bits_per_node", "congest_max_bits", "congest_total_Mbit"},
	}
	const d = 8
	root := xrand.New(cfg.Seed)
	ns := nSweep(cfg, []int{64, 128, 256, 512}, []int{64, 128})
	type res struct {
		localTotal, congestMax, congestTotal float64
	}
	results, err := sweepRows(cfg, root, ns,
		func(n int) string { return fmt.Sprintf("e9-n%d", n) },
		func(n, trial int, rng *xrand.Rand) (res, error) {
			g, err := hnd(n, d, rng.Split("graph"))
			if err != nil {
				return res{}, err
			}
			// Both protocols on one graph, engines seeded "l" and "c":
			// no scenario axis draws those labels, so both call the run
			// body directly.
			lp := counting.DefaultLocalParams(d)
			lres, err := runProcs(sim.New(g, sim.WithSeed(rng.Split("l").Uint64())), nil,
				func(int) sim.Proc { return counting.NewLocalProc(lp) }, nil, lp.MaxRounds+8, 1)
			if err != nil {
				return res{}, err
			}
			cp := counting.DefaultCongestParams(d)
			cres, err := runProcs(sim.New(g, sim.WithSeed(rng.Split("c").Uint64())), nil,
				newCongestSlab(cp, g.N()).proc, nil, congestMaxRounds(cp), 0)
			if err != nil {
				return res{}, err
			}
			return res{
				localTotal:   float64(lres.Metrics.Bits),
				congestMax:   float64(cres.Metrics.MaxMsgBits),
				congestTotal: float64(cres.Metrics.Bits),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		rs := results[i]
		lt := stats.Mean(column(rs, func(r res) float64 { return r.localTotal }))
		t.AddRow(n, lt/1e6, lt/float64(n),
			stats.Mean(column(rs, func(r res) float64 { return r.congestMax })),
			stats.Mean(column(rs, func(r res) float64 { return r.congestTotal }))/1e6)
	}
	t.Notes = append(t.Notes,
		"local_bits_per_node grows ~linearly in n (each node ships the whole topology); congest_max_bits grows ~logarithmically")
	return t, nil
}

// E10 — Theorem 3: without expansion, sizes are indistinguishable.
func E10(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Impossibility without expansion: dumbbell with a Byzantine bridge",
		Claim:   "Theorem 3: with one Byzantine cut node and no expansion, nodes cannot approximate log n — side A's estimates are identical whatever hides behind the bridge",
		Columns: []string{"n_left", "n_right", "true_log2(total)", "exp_estimate", "left_mean_est", "right_mean_est"},
	}
	const d = 8
	nLeft := 128
	if cfg.Quick {
		nLeft = 64
	}
	root := xrand.New(cfg.Seed)
	nRights := []int{nLeft, 8 * nLeft}
	type res struct {
		hEst, leftMean, rightMean float64
		hasLeft, hasRight         bool
	}
	results, err := sweepRows(cfg, root, nRights,
		// The label deliberately excludes nRight: the left bell, the node
		// IDs and coins of its vertices, and the bridge's behaviour are
		// IDENTICAL across the two rows, so any left-side difference could
		// only come from what is behind the bridge — which a silent cut
		// vertex never reveals.
		func(int) string { return "e10" },
		func(nRight, trial int, rng *xrand.Rand) (res, error) {
			g, bridge, err := graph.Dumbbell(nLeft, nRight, d, rng.Split("graph"))
			if err != nil {
				return res{}, err
			}
			out := res{hEst: g.EstimateVertexExpansion(8, rng.Split("sweep"))}
			// The dumbbell and its bridge are no substrate or placement
			// axis value, so this run calls the run body directly.
			byz := make([]bool, g.N())
			byz[bridge] = true
			params := counting.DefaultCongestParams(d)
			params.MaxPhase = 12
			r, err := runProcs(sim.New(g, sim.WithSeed(rng.Split("run").Uint64())), byz,
				newCongestSlab(params, g.N()-1).proc,
				func(int) sim.Proc { return byzantine.Silent{} },
				congestMaxRounds(params), 1)
			if err != nil {
				return res{}, err
			}
			var lsum, rsum float64
			var lcnt, rcnt int
			for v, o := range r.Outcomes {
				if v == bridge || !o.Decided {
					continue
				}
				if v < nLeft {
					lsum += float64(o.Estimate)
					lcnt++
				} else {
					rsum += float64(o.Estimate)
					rcnt++
				}
			}
			if lcnt > 0 {
				out.leftMean = lsum / float64(lcnt)
				out.hasLeft = true
			}
			if rcnt > 0 {
				out.rightMean = rsum / float64(rcnt)
				out.hasRight = true
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for i, nRight := range nRights {
		rs := results[i]
		t.AddRow(nLeft, nRight, counting.Log2(nLeft+nRight+1),
			stats.Mean(column(rs, func(r res) float64 { return r.hEst })),
			stats.Mean(columnIf(rs, func(r res) bool { return r.hasLeft },
				func(r res) float64 { return r.leftMean })),
			stats.Mean(columnIf(rs, func(r res) bool { return r.hasRight },
				func(r res) float64 { return r.rightMean })))
	}
	t.Notes = append(t.Notes,
		"left_mean_est must be (near) identical across rows: side A cannot tell an 8x larger network behind the bridge from an equal one")
	return t, nil
}

// E11 — the application pipeline: counting output bootstraps agreement.
func E11(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Counting as preprocessing for Byzantine agreement",
		Claim:   "Section 1.1: a constant-factor estimate of log n from the counting protocol suffices to run the sampling+majority agreement of [3]",
		Columns: []string{"estimate_source", "log_estimate", "walk_len", "success_frac"},
	}
	const d = 8
	n := 256
	if cfg.Quick {
		n = 128
	}
	root := xrand.New(cfg.Seed)

	type src struct {
		name   string
		logEst func(rng *xrand.Rand, g *graph.Graph) (int, error)
	}
	counted := func(rng *xrand.Rand, g *graph.Graph) (int, error) {
		params := counting.DefaultCongestParams(d)
		res, err := runProcs(sim.New(g, sim.WithSeed(rng.Uint64())), nil,
			newCongestSlab(params, g.N()).proc, nil, congestMaxRounds(params), 1)
		if err != nil {
			return 0, err
		}
		hist := stats.NewHistogram()
		for _, e := range counting.DecidedEstimates(res.Outcomes, res.Honest) {
			hist.Add(e)
		}
		mode, _ := hist.Mode()
		return mode, nil
	}
	sources := []src{
		// The oracle knows the mixing-time scale exactly: ceil(log_d n),
		// the walk length the protocol of [3] actually needs on a
		// d-regular expander. (Handing it log2 n instead would make the
		// walks ~3x longer than necessary, which only increases the odds
		// of crossing a Byzantine node — over-estimates hurt too.)
		{"oracle_logd", func(rng *xrand.Rand, g *graph.Graph) (int, error) {
			return int(math.Ceil(counting.LogD(g.N(), d))), nil
		}},
		{"congest_counting", counted},
		{"none (walk len 1)", func(rng *xrand.Rand, g *graph.Graph) (int, error) { return 0, nil }},
	}
	type res struct {
		logEst, walkLen, frac float64
	}
	results, err := sweepRows(cfg, root, sources,
		func(s src) string { return "e11-" + s.name },
		func(s src, trial int, rng *xrand.Rand) (res, error) {
			g, err := hnd(n, d, rng.Split("graph"))
			if err != nil {
				return res{}, err
			}
			byz, err := byzantine.RandomPlacement(g, 4, rng.Split("place"))
			if err != nil {
				return res{}, err
			}
			logEst, err := s.logEst(rng.Split("est"), g)
			if err != nil {
				return res{}, err
			}
			var params agreement.Params
			if s.name == "none (walk len 1)" {
				params = agreement.Params{WalkLen: 1, Iterations: 1, TokensPerNode: 4}
			} else {
				params = agreement.FromEstimate(logEst)
			}
			frac, err := runAgreeWithParams(rng.Split("agree"), g, byz, params)
			if err != nil {
				return res{}, err
			}
			return res{
				logEst:  float64(logEst),
				walkLen: float64(params.WalkLen),
				frac:    frac,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, s := range sources {
		rs := results[i]
		t.AddRow(s.name,
			stats.Mean(column(rs, func(r res) float64 { return r.logEst })),
			stats.Mean(column(rs, func(r res) float64 { return r.walkLen })),
			stats.Mean(column(rs, func(r res) float64 { return r.frac })))
	}
	t.Notes = append(t.Notes,
		"success = fraction of honest nodes holding the initial honest majority bit (1, a 75/25 split)")
	return t, nil
}

// runAgreeWithParams runs the agreement protocol with explicit params:
// honest nodes start on bit 1 except every fourth, which starts on 0
// (a 75/25 split), and Byzantine nodes flip the tokens passing through
// them and seed extra 0 tokens. It returns the fraction of honest nodes
// holding 1 at the end.
func runAgreeWithParams(rng *xrand.Rand, g *graph.Graph, byz []bool, params agreement.Params) (float64, error) {
	r, err := runProcs(sim.New(g, sim.WithSeed(rng.Uint64())), byz,
		func(v int) sim.Proc {
			if v%4 == 0 {
				return agreement.NewProc(params, 0)
			}
			return agreement.NewProc(params, 1)
		},
		func(int) sim.Proc { return &agreement.ValueFlipper{Prefer: 0, Extra: 1} },
		params.TotalRounds()+4, 0)
	if err != nil {
		return 0, err
	}
	return agreement.AgreementFraction(r.Procs, r.Honest, 1), nil
}

// E12 — placement sensitivity: random vs clustered vs spread.
func E12(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Adversarial placement sensitivity (CONGEST, beacon spam)",
		Claim:   "Remark 1 / Section 2: the adversary places nodes arbitrarily; clustering controls a neighborhood's termination while most nodes stay correct",
		Columns: []string{"placement", "decided_frac", "bounded_frac", "near_mean_est", "far_mean_est"},
	}
	const d = 8
	n := 256
	if cfg.Quick {
		n = 128
	}
	b := byzCount(n, 0.45)
	root := xrand.New(cfg.Seed)
	// The placement axis straight off the scenario registry: E12 *is* a
	// one-axis slice of the scenario grid. (Row order is the published
	// tables', not the registry's sorted order.)
	placements := []string{"random", "clustered", "spread"}
	type res struct {
		decided, bounded, nearMean, farMean float64
		hasNear, hasFar                     bool
	}
	results, err := sweepRows(cfg, root, placements,
		func(name string) string { return "e12-" + name },
		func(name string, trial int, rng *xrand.Rand) (res, error) {
			r, err := RunScenario(Scenario{
				Proto: "congest", Substrate: "hnd",
				Adversary: "spam", Placement: name,
				N: n, D: d, Byz: b, MaxPhase: 10, StopFrac: 1,
			}, rng, RunOptions{})
			if err != nil {
				return res{}, err
			}
			logd := counting.LogD(n, d)
			out := res{
				decided: counting.DecidedFraction(r.Outcomes, r.Honest),
				bounded: counting.FractionWithinFactor(r.Outcomes, r.Honest,
					0.5*logd, 2*logd+3),
			}
			far := farMask(r.Graph, r.Byz, 2)
			var nsum, fsum float64
			var ncnt, fcnt int
			for v, o := range r.Outcomes {
				if !r.Honest[v] || !o.Decided {
					continue
				}
				if far[v] {
					fsum += float64(o.Estimate)
					fcnt++
				} else {
					nsum += float64(o.Estimate)
					ncnt++
				}
			}
			if ncnt > 0 {
				out.nearMean = nsum / float64(ncnt)
				out.hasNear = true
			}
			if fcnt > 0 {
				out.farMean = fsum / float64(fcnt)
				out.hasFar = true
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for i, pl := range placements {
		rs := results[i]
		t.AddRow(pl,
			stats.Mean(column(rs, func(r res) float64 { return r.decided })),
			stats.Mean(column(rs, func(r res) float64 { return r.bounded })),
			stats.Mean(columnIf(rs, func(r res) bool { return r.hasNear },
				func(r res) float64 { return r.nearMean })),
			stats.Mean(columnIf(rs, func(r res) bool { return r.hasFar },
				func(r res) float64 { return r.farMean })))
	}
	return t, nil
}
