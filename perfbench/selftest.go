package main

// The self-test of the traced rebuild: at toy n, every rebuilt cell
// must reproduce expt.RunScenario's outputs for the same seed, and the
// rebuilt sweep must reproduce expt.RunMatrixSweep's table.txt. When a
// change renames a split label or an axis, the traced run then fails
// instead of timing a different program.

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"byzcount/internal/expt"
	"byzcount/internal/xrand"
)

// selfTestCells covers the static, churn, virtual-time and implicit
// paths, benign and with spammers.
func selfTestCells() []expt.Scenario {
	base := expt.Scenario{Proto: "congest", Substrate: "hnd", Adversary: "none", Placement: "random",
		N: 64, D: 8, MaxPhase: 4}
	spam := base
	spam.Adversary, spam.ByzFrac, spam.StopFrac = "spam", 0.05, 1
	vt := spam
	vt.Delay = "uniform:1-4"
	churn := base
	churn.Churn = expt.ChurnProfile{Leaves: 2, Joins: 2, StopAfter: 40, Mixed: true}
	churn.Dynamic = true
	churnSpamVT := spam
	churnSpamVT.Churn, churnSpamVT.Dynamic, churnSpamVT.Delay = churn.Churn, true, "unit"
	implicit := base
	implicit.Substrate, implicit.MaxPhase = "torus-implicit", 2
	return []expt.Scenario{base, spam, vt, churn, churnSpamVT, implicit}
}

// selfTestMatrix is a toy version of the sweep grid.
func selfTestMatrix() expt.Matrix {
	m := sweepMatrix()
	m.Ns = []int{48}
	m.MaxPhase = 4
	m.Churns[1].StopAfter = 40
	return m
}

func runSelfTest(seed uint64, dir string) (res result) {
	var tr tracer
	start := time.Now()
	defer func() { res.Wall = time.Since(start).Seconds() }()
	for _, sc := range selfTestCells() {
		res.Attempted++
		rng := xrand.New(seed).Split(sc.Label())
		ref, err := expt.RunScenario(sc, rng, expt.RunOptions{})
		if err != nil {
			res.Failed++
			res.fail("%s: RunScenario: %v", sc.Label(), err)
			continue
		}
		got, err := tr.cell(sc, rng)
		if err != nil {
			res.Failed++
			res.fail("%s: rebuild: %v", sc.Label(), err)
			continue
		}
		if want := outcomeDigest(ref.Outcomes, ref.Honest, ref.Rounds, ref.Metrics); got.digest() != want {
			res.Failed++
			res.fail("%s: rebuilt cell differs from RunScenario", sc.Label())
		}
	}

	res.Attempted++
	const trials = 2
	refDir, rebuiltDir := filepath.Join(dir, "ref"), filepath.Join(dir, "rebuilt")
	_, err := expt.RunMatrixSweep(context.Background(), expt.Config{Seed: seed, Trials: trials, Parallel: 1},
		selfTestMatrix(), refDir, expt.SweepOptions{GitSHA: "selftest"})
	var want []byte
	if err == nil {
		want, err = os.ReadFile(filepath.Join(refDir, "table.txt"))
	}
	if err != nil {
		res.Failed++
		res.fail("toy RunMatrixSweep: %v", err)
		return res
	}
	got, err := tr.tracedSweep(selfTestMatrix(), seed, trials, rebuiltDir)
	switch {
	case err != nil:
		res.Failed++
		res.fail("toy rebuilt sweep: %v", err)
	case got != string(want):
		res.Failed++
		res.fail("toy rebuilt sweep table differs from RunMatrixSweep's table.txt")
	}
	return res
}
