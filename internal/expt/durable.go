package expt

// The durable matrix driver: `byzcount sweep`. Where RunMatrixCtx holds
// the whole grid's results in memory and dies with the process, this
// driver writes every completed (row, trial) cell to an append-only
// CRC-framed log (internal/sweep) as it lands, streams the table
// aggregates through constant-memory stats.Online accumulators, and on
// restart replays the log and runs only the cells that are missing.
// Because every cell is a pure function of root.SplitN(label, trial),
// a resumed run's tables are byte-identical to an uninterrupted run's
// — interruption costs wall time, never correctness.
//
// Failure isolation rides the same machinery. A panicking cell is
// caught, recorded in the log as a quarantined failure (with its label,
// sub-seed, and stack), and the rest of the grid keeps running; plain
// errors get a bounded retry with backoff first. Cancellation (SIGTERM,
// per-cell timeout) is cooperative: in-flight engines abort at their
// next round boundary, finished results are flushed, and a checkpoint
// records how far the sweep got.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"byzcount/internal/counting"
	"byzcount/internal/report"
	"byzcount/internal/stats"
	"byzcount/internal/sweep"
	"byzcount/internal/xrand"
)

// SweepOptions tunes the durable driver's robustness policy. The zero
// value is sensible for production: two retries, no per-cell timeout.
type SweepOptions struct {
	// Retries is how many times a cell failing with a plain error is
	// re-attempted before quarantine (panics are never retried — a panic
	// is deterministic in a pure-function cell, so retrying it only
	// burns time). 0 means the default of 2; negative disables retry.
	Retries int
	// RetryBackoff is the sleep before the first retry, doubled each
	// further attempt. 0 means the default of 5ms.
	RetryBackoff time.Duration
	// CellTimeout, when positive, bounds one attempt of one cell; an
	// attempt exceeding it is quarantined as a timeout (the engine
	// aborts at the next round boundary, so a cell is only as far from
	// interruptible as one round).
	CellTimeout time.Duration
	// OnCell, when non-nil, is called serially from the collector after
	// every completed cell (including replayed ones, once, at startup)
	// with cumulative progress. It is the CLI's progress line and the
	// tests' cooperative fault point.
	OnCell func(done, total int)
	// GitSHA is recorded in the manifest for provenance (the caller
	// supplies it — typically perf.GitState() — because this package
	// cannot import perf). Empty is recorded as "unknown".
	GitSHA string
	// SyncEvery overrides the log's fsync batch size (0 keeps the log's
	// default). Tests use 1 to make every append durable immediately.
	SyncEvery int
}

func (o SweepOptions) retries() int {
	if o.Retries == 0 {
		return 2
	}
	if o.Retries < 0 {
		return 0
	}
	return o.Retries
}

func (o SweepOptions) backoff() time.Duration {
	if o.RetryBackoff <= 0 {
		return 5 * time.Millisecond
	}
	return o.RetryBackoff
}

// QuarantinedCell is one cell the sweep could not complete: the grid
// key, the exact sub-seed to reproduce it (xrand.New(Seed) is the
// cell's root stream), and the failure, with stack when it panicked.
type QuarantinedCell struct {
	Row      string
	Trial    int
	Seed     uint64
	Err      string
	Stack    string
	Attempts int
}

// SweepSummary is the outcome of a durable sweep run or resume.
type SweepSummary struct {
	// Table is the rendered matrix table; nil when the run was
	// interrupted before completing the grid.
	Table *Table
	// Total is the grid size; Completed counts healthy cells (replayed
	// and fresh); Replayed counts cells restored from the log rather
	// than run.
	Total, Completed, Replayed int
	// Quarantined lists failed cells in deterministic (row, trial)
	// order. Quarantine does not abort the grid; callers decide the
	// exit code.
	Quarantined []QuarantinedCell
	// Interrupted reports the run stopped on context cancellation; the
	// sweep directory is resumable.
	Interrupted bool
}

// RunMatrixSweep initializes dir as a durable sweep directory (manifest
// plus cell log) and runs the matrix through the durable driver. dir
// must not already hold a sweep — resuming an existing one is
// ResumeMatrixSweep's job, and the split keeps "start over" from
// silently absorbing a half-finished run with different flags.
func RunMatrixSweep(ctx context.Context, cfg Config, m Matrix, dir string, opts SweepOptions) (*SweepSummary, error) {
	scs, skipped, err := m.Scenarios()
	if err != nil {
		return nil, err
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("expt: empty matrix (%d cells skipped as incompatible)", skipped)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, sweep.ManifestName)); err == nil {
		return nil, fmt.Errorf("expt: %s already holds a sweep; use resume", dir)
	}
	spec, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	sha := opts.GitSHA
	if sha == "" {
		sha = "unknown"
	}
	man := &sweep.Manifest{
		Schema:    sweep.ManifestSchema,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GitSHA:    sha,
		Seed:      cfg.Seed,
		Trials:    cfg.trials(),
		Cells:     len(scs),
		Columns:   matrixMetricCols,
		Spec:      spec,
	}
	if err := sweep.WriteManifest(dir, man); err != nil {
		return nil, err
	}
	return runDurable(ctx, cfg, scs, skipped, dir, opts, nil)
}

// ResumeMatrixSweep reopens dir and completes the sweep recorded in its
// manifest: logged cells are replayed, missing ones run. The manifest,
// not the caller, supplies the grid, seed, and trial count — cfg
// contributes only execution shape (Parallel). The resumed run's
// tables are byte-identical to what the uninterrupted run would have
// produced.
func ResumeMatrixSweep(ctx context.Context, dir string, cfg Config, opts SweepOptions) (*SweepSummary, error) {
	man, err := sweep.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	var m Matrix
	if err := json.Unmarshal(man.Spec, &m); err != nil {
		return nil, fmt.Errorf("expt: %s: manifest spec: %w", dir, err)
	}
	scs, skipped, err := m.Scenarios()
	if err != nil {
		return nil, err
	}
	if len(scs) != man.Cells {
		return nil, fmt.Errorf("expt: %s: manifest records %d cells but the spec enumerates %d — grid vocabulary changed under the log",
			dir, man.Cells, len(scs))
	}
	cfg.Seed = man.Seed
	cfg.Trials = man.Trials
	log, replayed, err := sweep.OpenLog(dir)
	if err != nil {
		return nil, err
	}
	log.Close()
	return runDurable(ctx, cfg, scs, skipped, dir, opts, replayed)
}

// cellKey identifies one grid cell.
type cellKey struct {
	row   int
	trial int
}

// rowAgg streams one row's completed trials, in trial order, through
// constant-memory aggregates. pending is a reorder buffer: cells land
// in scheduling order, but float accumulation order determines the
// bits of the result, so trials are fed strictly in index order (its
// size is bounded by the scheduler's parallelism, not the grid).
type rowAgg struct {
	next    int
	pending map[int]sweep.Record
	agg     [numCellMetrics]stats.Online
	p50     [numCellMetrics]*stats.P2
}

// runDurable is the shared driver body: replay, run, aggregate, flush.
func runDurable(ctx context.Context, cfg Config, scs []Scenario, skipped int,
	dir string, opts SweepOptions, replayed []sweep.Record) (*SweepSummary, error) {
	trials := cfg.trials()
	total := len(scs) * trials
	rowIdx := make(map[string]int, len(scs))
	labels := make([]string, len(scs))
	for i, sc := range scs {
		labels[i] = sc.Label()
		rowIdx[labels[i]] = i
	}

	rows := make([]rowAgg, len(scs))
	for i := range rows {
		rows[i].pending = make(map[int]sweep.Record)
		for k := range rows[i].p50 {
			rows[i].p50[k] = stats.NewP2(0.5)
		}
	}
	var quarantined []QuarantinedCell
	completedHealthy := 0
	// account records a cell's outcome the moment it is logged — the
	// WAL, not the aggregate feed, is what resume sees, so the
	// checkpoint's counts must match it.
	account := func(rec sweep.Record) {
		if rec.Failed() {
			quarantined = append(quarantined, QuarantinedCell{
				Row: rec.Row, Trial: rec.Trial, Seed: rec.Seed,
				Err: rec.Err, Stack: rec.Stack, Attempts: rec.Attempts,
			})
			return
		}
		completedHealthy++
	}
	// deliver feeds one landed record through the reorder buffer,
	// advancing each row's aggregates strictly in trial order — float
	// accumulation order determines the bits of the table, so a cell
	// landing ahead of a lower-numbered trial waits in pending.
	deliver := func(rec sweep.Record) {
		r := rowIdx[rec.Row]
		ra := &rows[r]
		ra.pending[rec.Trial] = rec
		for {
			next, ok := ra.pending[ra.next]
			if !ok {
				break
			}
			delete(ra.pending, ra.next)
			ra.next++
			if next.Failed() {
				continue
			}
			for k, v := range next.Floats() {
				if k >= numCellMetrics {
					break
				}
				ra.agg[k].Add(v)
				ra.p50[k].Add(v)
			}
		}
	}

	// Replay: last record per key wins (a crash-resume cycle can log a
	// key twice), then feed in deterministic (row, trial) order so the
	// aggregates see the same sequence an uninterrupted run fed them.
	byKey := make(map[cellKey]sweep.Record, len(replayed))
	for _, rec := range replayed {
		r, ok := rowIdx[rec.Row]
		if !ok {
			return nil, fmt.Errorf("expt: %s: log row %q is not in the manifest grid", dir, rec.Row)
		}
		if rec.Trial < 0 || rec.Trial >= trials {
			return nil, fmt.Errorf("expt: %s: log trial %d out of range for %q", dir, rec.Trial, rec.Row)
		}
		byKey[cellKey{r, rec.Trial}] = rec
	}
	done := len(byKey)
	skipKeys := make(map[cellKey]bool, len(byKey))
	for i := range scs {
		for t := 0; t < trials; t++ {
			k := cellKey{i, t}
			if rec, ok := byKey[k]; ok {
				skipKeys[k] = true
				account(rec)
				deliver(rec)
				delete(byKey, k)
			}
		}
	}
	if opts.OnCell != nil {
		opts.OnCell(done, total)
	}

	log, _, err := sweep.OpenLog(dir)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	if opts.SyncEvery > 0 {
		log.SyncEvery = opts.SyncEvery
	}

	// Run the missing cells, in (row, trial) order, on cfg.parallel()
	// workers. A cell abandoned to cancellation sends nothing; the
	// channel closes once every worker has returned, so when the
	// collector's range ends no cell is still writing.
	root := xrand.New(cfg.Seed)
	resCh := make(chan sweep.Record, cfg.parallel())
	go func() {
		forEachCell(ctx, cfg.parallel(), total, func(k int) bool {
			i, t := k/trials, k%trials
			if skipKeys[cellKey{i, t}] {
				return true
			}
			if rec, abandoned := runDurableCell(ctx, scs[i], labels[i], t, root, opts); !abandoned {
				resCh <- rec
			}
			return true
		})
		close(resCh)
	}()

	var walErr error
	for rec := range resCh {
		if walErr == nil {
			walErr = log.Append(rec)
		}
		account(rec)
		deliver(rec)
		done++
		if opts.OnCell != nil {
			opts.OnCell(done, total)
		}
	}
	if walErr == nil {
		walErr = log.Sync()
	}
	if walErr != nil {
		return nil, walErr
	}

	sort.Slice(quarantined, func(a, b int) bool {
		qa, qb := quarantined[a], quarantined[b]
		if qa.Row != qb.Row {
			return rowIdx[qa.Row] < rowIdx[qb.Row]
		}
		return qa.Trial < qb.Trial
	})
	sum := &SweepSummary{
		Total:       total,
		Completed:   completedHealthy,
		Replayed:    len(skipKeys),
		Quarantined: quarantined,
		Interrupted: ctx.Err() != nil,
	}
	ck := &sweep.Checkpoint{
		UpdatedAt:   time.Now().UTC().Format(time.RFC3339),
		Completed:   completedHealthy,
		Quarantined: len(quarantined),
		Total:       total,
		Interrupted: sum.Interrupted,
	}
	if err := sweep.WriteCheckpoint(dir, ck); err != nil {
		return nil, err
	}
	if sum.Interrupted {
		return sum, ctx.Err()
	}

	// Grid complete: render the table from the streamed aggregates and
	// emit the machine-readable summary. SumMean adds the same float64s
	// in the same order batch stats.Mean does, so on a healthy grid
	// this table is byte-identical to RunMatrixCtx's.
	t := matrixTable(len(scs), trials, skipped)
	for i, sc := range scs {
		ra := &rows[i]
		scd := sc.withDefaults()
		t.AddRow(labels[i],
			ra.agg[cellByz].SumMean(),
			ra.agg[cellRounds].SumMean(),
			ra.agg[cellDecided].SumMean(),
			ra.agg[cellBounded].SumMean(),
			ra.agg[cellMedian].SumMean(),
			counting.LogD(scd.N, scd.D),
			ra.agg[cellMsgs].SumMean())
	}
	sum.Table = t
	if err := os.WriteFile(filepath.Join(dir, "table.txt"), []byte(t.Render()), 0o644); err != nil {
		return nil, err
	}
	if err := writeSummaryJSONL(dir, labels, rows, quarantined); err != nil {
		return nil, err
	}
	return sum, nil
}

// runDurableCell executes one missing cell under the robustness
// policy. The second return is true when the cell was abandoned due to
// parent-context cancellation: nothing is logged and resume re-runs it.
func runDurableCell(ctx context.Context, sc Scenario, label string, trial int,
	root *xrand.Rand, opts SweepOptions) (sweep.Record, bool) {
	// SplitN is a pure derivation, so the seed is attempt-independent
	// and recorded even for failures — `byzcount run` on it reproduces
	// the quarantined cell exactly.
	seed := root.SplitN(label, trial).Seed()
	backoff := opts.backoff()
	for attempt := 1; ; attempt++ {
		cellCtx, cancel := ctx, context.CancelFunc(func() {})
		if opts.CellTimeout > 0 {
			cellCtx, cancel = context.WithTimeout(ctx, opts.CellTimeout)
		}
		vals, stack, err := runCellOnce(cellCtx, sc, root.SplitN(label, trial))
		cellTimedOut := cellCtx.Err() != nil && ctx.Err() == nil
		cancel()
		switch {
		case err == nil:
			return sweep.Record{Row: label, Trial: trial, Seed: seed,
				Vals: sweep.PackFloats(vals[:]), Attempts: attempt}, false
		case ctx.Err() != nil:
			// Shutdown, not failure: drop the attempt entirely.
			return sweep.Record{}, true
		case stack != "":
			// A panic in a pure-function cell is deterministic;
			// quarantine immediately rather than retrying it.
			return sweep.Record{Row: label, Trial: trial, Seed: seed,
				Err: err.Error(), Stack: stack, Attempts: attempt}, false
		case cellTimedOut:
			return sweep.Record{Row: label, Trial: trial, Seed: seed,
				Err:      fmt.Sprintf("cell timeout after %v: %v", opts.CellTimeout, err),
				Attempts: attempt}, false
		case attempt > opts.retries():
			return sweep.Record{Row: label, Trial: trial, Seed: seed,
				Err: err.Error(), Attempts: attempt}, false
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// runCellOnce is one attempt with panic containment: a panicking cell
// returns an error plus its stack instead of taking down the sweep.
func runCellOnce(ctx context.Context, sc Scenario, rng *xrand.Rand) (vals [numCellMetrics]float64, stack string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
			stack = string(debug.Stack())
		}
	}()
	vals, err = matrixCellVals(ctx, sc, rng)
	return
}

// writeSummaryJSONL emits summary.jsonl: one line per row with the full
// online statistics per metric (count, mean, variance, min, max,
// median estimate), then one line per quarantined cell. Non-finite
// floats are carried as strings — see report.SafeFloat.
func writeSummaryJSONL(dir string, labels []string, rows []rowAgg, quarantined []QuarantinedCell) error {
	f, err := os.Create(filepath.Join(dir, "summary.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	j := report.NewJSONL(f)
	for i, label := range labels {
		metrics := make(map[string]any, numCellMetrics)
		for k, name := range matrixMetricCols {
			a := &rows[i].agg[k]
			metrics[name] = map[string]any{
				"n":    a.N(),
				"mean": report.SafeFloat(a.Mean()),
				"var":  report.SafeFloat(a.Variance()),
				"min":  report.SafeFloat(a.Min()),
				"max":  report.SafeFloat(a.Max()),
				"p50":  report.SafeFloat(rows[i].p50[k].Quantile()),
			}
		}
		if err := j.Emit(map[string]any{"kind": "row", "row": label, "metrics": metrics}); err != nil {
			return err
		}
	}
	for _, q := range quarantined {
		if err := j.Emit(map[string]any{
			"kind": "quarantined", "row": q.Row, "trial": q.Trial,
			"seed": q.Seed, "err": q.Err, "attempts": q.Attempts,
		}); err != nil {
			return err
		}
	}
	return f.Sync()
}
