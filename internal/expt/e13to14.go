package expt

import (
	"fmt"

	"byzcount/internal/counting"
	"byzcount/internal/stats"
	"byzcount/internal/xrand"
)

// E13 — extension: crash-fault churn. The paper's motivating line of
// work ([3,4,5]) runs in dynamic networks with churn; crash faults are
// the weakest churn model, and the counting protocol must shrug them
// off (they are strictly weaker than the Byzantine faults of Theorem 2).
func E13(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Extension: CONGEST counting under crash-fault churn",
		Claim:   "Crash faults are strictly weaker than Byzantine faults, so Theorem 2's guarantees must persist under fail-stop churn",
		Columns: []string{"crash_frac", "decided_frac", "bounded_frac", "mean_est"},
	}
	const d = 8
	n := 256
	if cfg.Quick {
		n = 128
	}
	root := xrand.New(cfg.Seed)
	crashFracs := []float64{0, 0.05, 0.10, 0.20}
	type res struct {
		decided, bounded, meanEst float64
	}
	results, err := sweepRows(cfg, root, crashFracs,
		func(crashFrac float64) string { return fmt.Sprintf("e13-%.2f", crashFrac) },
		func(crashFrac float64, trial int, rng *xrand.Rand) (res, error) {
			// Fail-stop nodes sit on the adversary axis: they run the
			// honest protocol until their crash round.
			r, err := RunScenario(Scenario{
				Adversary: "crash", N: n, D: d,
				Byz: int(crashFrac * float64(n)), MaxPhase: 9, StopFrac: 1,
			}, rng, RunOptions{})
			if err != nil {
				return res{}, err
			}
			logd := counting.LogD(n, d)
			return res{
				decided: counting.DecidedFraction(r.Outcomes, r.Honest),
				bounded: counting.FractionWithinFactor(r.Outcomes, r.Honest,
					0.5*logd, 2*logd+2),
				meanEst: meanEstimate(r),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, crashFrac := range crashFracs {
		rs := results[i]
		t.AddRow(crashFrac,
			stats.Mean(column(rs, func(r res) float64 { return r.decided })),
			stats.Mean(column(rs, func(r res) float64 { return r.bounded })),
			stats.Mean(column(rs, func(r res) float64 { return r.meanEst })))
	}
	t.Notes = append(t.Notes,
		"crashed nodes are excluded from the honest metrics; decided/bounded fractions are over surviving correct nodes")
	return t, nil
}

// E14 — extension: topology sensitivity. The protocol's guarantee needs
// an expander (Theorem 3 says expansion is necessary); this measures what
// actually happens on non-expander substrates, including the small-world
// topology that the prior work of Chatterjee et al. [14] required.
func E14(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Extension: CONGEST counting across topologies",
		Claim:   "Theorems 2 & 3: the guarantee holds on (almost all) d-regular graphs; expansion is necessary — low-expansion substrates under-estimate",
		Columns: []string{"topology", "expansion_est", "mode", "frac_within_1", "log2(n)"},
	}
	n := 256
	if cfg.Quick {
		n = 128
	}
	root := xrand.New(cfg.Seed)
	// Each topology is a substrate axis value at its own degree
	// parameter (the torus is 4-regular, the ring 2-regular).
	type topo struct {
		name, substrate string
		d               int
	}
	topos := []topo{
		{"H(n,8)", "hnd", 8},
		{"small-world", "smallworld", 8},
		{"torus", "torus", 4},
		{"ring", "ring", 2},
	}
	type res struct {
		hEst float64
		ests []int
	}
	results, err := sweepRows(cfg, root, topos,
		func(tp topo) string { return "e14-" + tp.name },
		func(tp topo, trial int, rng *xrand.Rand) (res, error) {
			r, err := RunScenario(Scenario{
				Substrate: tp.substrate, N: n, D: tp.d, MaxPhase: 12, StopFrac: 1,
			}, rng, RunOptions{})
			if err != nil {
				return res{}, err
			}
			return res{
				hEst: r.Graph.EstimateVertexExpansion(8, rng.Split("sweep")),
				ests: counting.DecidedEstimates(r.Outcomes, r.Honest),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, tp := range topos {
		rs := results[i]
		hist := stats.NewHistogram()
		for _, r := range rs {
			for _, e := range r.ests {
				hist.Add(e)
			}
		}
		mode, _ := hist.Mode()
		t.AddRow(tp.name,
			stats.Mean(column(rs, func(r res) float64 { return r.hEst })),
			mode, hist.Fraction(mode-1, mode+1), counting.Log2(n))
	}
	t.Notes = append(t.Notes,
		"each topology's mode tracks log_d(n) for its own degree d (ring d=2 -> ~log2 n): BENIGN counting does not need expansion",
		"expansion is needed against Byzantine nodes (Theorem 3) — see E10, where one Byzantine cut vertex on a low-expansion graph hides an 8x size difference",
		"the small-world row shows this paper's algorithm does NOT need the clustering that [14] required")
	return t, nil
}
