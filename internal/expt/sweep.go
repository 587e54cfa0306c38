package expt

// The shared sweep/trial driver: every experiment is a sweep of rows,
// each repeated for cfg.Trials() independent trials. Trials are pure
// functions of their (row label, trial index) sub-seed — xrand.Split is
// a pure derivation from the parent seed, so the sub-streams are
// identical however the (row, trial) grid is scheduled. The driver
// executes the whole grid concurrently with bounded parallelism and
// collects results in deterministic (row, trial) order, which makes
// every table byte-identical across -parallel 1 and -parallel N.

import (
	"context"
	"sync"
	"sync/atomic"

	"byzcount/internal/xrand"
)

// sweepRows runs fn once per (row, trial) pair, at most cfg.parallel()
// concurrently, and returns results[row][trial]. The sub-seed of a pair
// is root.SplitN(label(row), trial) — exactly what the hand-rolled
// per-runner loops used, so tables are unchanged from the serial days.
// On failure the first error in (row, trial) order is returned.
func sweepRows[P, R any](cfg Config, root *xrand.Rand, rows []P,
	label func(P) string, fn func(row P, trial int, rng *xrand.Rand) (R, error)) ([][]R, error) {
	return sweepRowsCtx(context.Background(), cfg, root, rows, label,
		func(_ context.Context, row P, trial int, rng *xrand.Rand) (R, error) {
			return fn(row, trial, rng)
		})
}

// sweepRowsCtx is sweepRows with two additions the durable sweep path
// needs: a context that stops the grid between cells (cells already
// launched run to completion; their engines observe the context
// separately), and fail-fast scheduling — once any cell records an
// error, cells that have not started yet are skipped instead of
// burning the rest of the grid's compute on a run whose result will be
// discarded anyway. Completed cells keep their results either way, and
// the error returned is still the first in deterministic (row, trial)
// order among the cells that ran.
func sweepRowsCtx[P, R any](ctx context.Context, cfg Config, root *xrand.Rand, rows []P,
	label func(P) string, fn func(ctx context.Context, row P, trial int, rng *xrand.Rand) (R, error)) ([][]R, error) {
	trials := cfg.trials()
	results := make([][]R, len(rows))
	errs := make([][]error, len(rows))
	for i := range rows {
		results[i] = make([]R, trials)
		errs[i] = make([]error, trials)
	}
	forEachCell(ctx, cfg.parallel(), len(rows)*trials, func(k int) bool {
		i, t := k/trials, k%trials
		rng := root.SplitN(label(rows[i]), t)
		results[i][t], errs[i][t] = fn(ctx, rows[i], t, rng)
		return errs[i][t] == nil
	})
	for i := range errs {
		for _, err := range errs[i] {
			if err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// forEachCell calls do for the cell indices 0..cells-1 on at most
// parallel goroutines, each taking the next index from a shared
// counter, so cells start in index order and the goroutines never
// outnumber the workers however large the grid. Before each cell a
// worker checks the context and fail-fast: once ctx is done or any do
// has returned false, no further cell starts. It returns when every
// worker has.
func forEachCell(ctx context.Context, parallel, cells int, do func(k int) bool) {
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(parallel, cells); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= cells || failed.Load() || ctx.Err() != nil {
					return
				}
				if !do(k) {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
}

// column extracts one float64 per trial from a row's results, in trial
// order — the shape stats.Mean and friends consume.
func column[R any](trials []R, get func(R) float64) []float64 {
	out := make([]float64, 0, len(trials))
	for _, r := range trials {
		out = append(out, get(r))
	}
	return out
}

// columnIf is column restricted to trials where keep returns true (for
// per-trial statistics that are undefined on some trials, e.g. a mean
// over an empty vertex class).
func columnIf[R any](trials []R, keep func(R) bool, get func(R) float64) []float64 {
	out := make([]float64, 0, len(trials))
	for _, r := range trials {
		if keep(r) {
			out = append(out, get(r))
		}
	}
	return out
}
