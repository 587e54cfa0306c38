package expt

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"byzcount/internal/sim"
	"byzcount/internal/sweep"
	"byzcount/internal/xrand"
)

// sweepTestMatrix is a small but multi-row grid: two protocols x two
// sizes, with a Byzantine row, so resume crosses row boundaries.
func sweepTestMatrix() Matrix {
	return Matrix{
		Protos:      []string{"congest", "geometric"},
		Adversaries: []string{"silent"},
		Ns:          []int{32, 48},
		ByzFracs:    []float64{0, 0.1},
		StopFrac:    1.0,
	}
}

func sweepTestConfig(parallel int) Config {
	return Config{Seed: 7, Trials: 3, Parallel: parallel}
}

// TestSweepMatchesMatrix: on a healthy grid, the durable driver's
// streamed table must be byte-identical to RunMatrixCtx's batch table —
// the two paths share the cell computation, and the online SumMean adds
// the same floats in the same order as the batch Mean.
func TestSweepMatchesMatrix(t *testing.T) {
	cfg := sweepTestConfig(4)
	m := sweepTestMatrix()
	batch, err := RunMatrixCtx(context.Background(), cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunMatrixSweep(context.Background(), cfg, m, t.TempDir(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Quarantined) != 0 || sum.Interrupted {
		t.Fatalf("healthy grid misbehaved: %+v", sum)
	}
	if got, want := sum.Table.Render(), batch.Render(); got != want {
		t.Errorf("sweep table differs from matrix table:\n--- sweep ---\n%s--- matrix ---\n%s", got, want)
	}
}

// interruptSweep runs a sweep that cancels itself once the fault point
// fires at roughly half the grid, returning the interrupted directory.
func interruptSweep(t *testing.T, cfg Config, m Matrix, dir string) *SweepSummary {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := SweepOptions{
		SyncEvery: 1,
		OnCell: func(done, total int) {
			if done >= total/2 {
				cancel()
			}
		},
	}
	sum, err := RunMatrixSweep(ctx, cfg, m, dir, opts)
	if err == nil || !sum.Interrupted {
		t.Fatalf("fault point did not interrupt: sum=%+v err=%v", sum, err)
	}
	if sum.Table != nil {
		t.Fatal("interrupted sweep rendered a table")
	}
	var ck sweep.Checkpoint
	data, err := os.ReadFile(filepath.Join(dir, sweep.CheckpointName))
	if err == nil {
		err = json.Unmarshal(data, &ck)
	}
	if err != nil || !ck.Interrupted {
		t.Fatalf("interrupted sweep left no checkpoint: %+v err=%v", ck, err)
	}
	return sum
}

// TestSweepResumeByteIdentical: interrupt a sweep mid-grid via the
// cooperative fault point, resume it, and require the resumed table to
// match an uninterrupted run byte for byte — at parallelism 1 and 8.
func TestSweepResumeByteIdentical(t *testing.T) {
	m := sweepTestMatrix()
	clean, err := RunMatrixSweep(context.Background(), sweepTestConfig(4), m, t.TempDir(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 8} {
		cfg := sweepTestConfig(parallel)
		dir := t.TempDir()
		interruptSweep(t, cfg, m, dir)
		// Resume ignores the caller's seed/trials (manifest wins); hand
		// it a wrong seed on purpose.
		resumed, err := ResumeMatrixSweep(context.Background(), dir, Config{Seed: 999, Parallel: parallel}, SweepOptions{})
		if err != nil {
			t.Fatalf("parallel=%d: resume: %v", parallel, err)
		}
		if resumed.Replayed == 0 {
			t.Errorf("parallel=%d: resume replayed nothing — interruption lost all progress", parallel)
		}
		if got, want := resumed.Table.Render(), clean.Table.Render(); got != want {
			t.Errorf("parallel=%d: resumed table differs from uninterrupted run:\n--- resumed ---\n%s--- clean ---\n%s",
				parallel, got, want)
		}
		// table.txt on disk matches too.
		onDisk, err := os.ReadFile(filepath.Join(dir, "table.txt"))
		if err != nil || string(onDisk) != clean.Table.Render() {
			t.Errorf("parallel=%d: table.txt mismatch (err=%v)", parallel, err)
		}
	}
}

// TestSweepHardKillTornTail simulates a SIGKILL mid-append: interrupt a
// sweep, then chop bytes off the log's final record before resuming.
// The torn cell re-runs and the final table is still byte-identical.
func TestSweepHardKillTornTail(t *testing.T) {
	m := sweepTestMatrix()
	clean, err := RunMatrixSweep(context.Background(), sweepTestConfig(4), m, t.TempDir(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sweepTestConfig(4)
	dir := t.TempDir()
	interruptSweep(t, cfg, m, dir)
	path := filepath.Join(dir, sweep.LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeMatrixSweep(context.Background(), dir, Config{Parallel: 4}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Table.Render(), clean.Table.Render(); got != want {
		t.Errorf("post-torn-tail resume differs:\n--- resumed ---\n%s--- clean ---\n%s", got, want)
	}
}

// registerPanicProto installs a protocol whose processes panic during
// the run, and removes it on cleanup.
func registerPanicProto(t *testing.T) {
	t.Helper()
	base := Protocols["geometric"]
	Protocols["panicproto"] = Protocol{
		Name:      "panicproto",
		MaxRounds: base.MaxRounds,
		Proc: func(ctx *scenarioCtx, v int) sim.Proc {
			panic("injected test panic: cell is poisoned")
		},
	}
	t.Cleanup(func() { delete(Protocols, "panicproto") })
}

// TestSweepQuarantine: a grid with one poisoned row completes the
// healthy rows, quarantines every poisoned cell with its label,
// sub-seed, and panic stack, and reports it all in the summary.
func TestSweepQuarantine(t *testing.T) {
	registerPanicProto(t)
	m := Matrix{
		Protos:   []string{"geometric", "panicproto"},
		Ns:       []int{32},
		StopFrac: 1.0,
	}
	cfg := sweepTestConfig(4)
	dir := t.TempDir()
	sum, err := RunMatrixSweep(context.Background(), cfg, m, dir, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Interrupted {
		t.Fatal("quarantine must not interrupt the grid")
	}
	if len(sum.Quarantined) != cfg.Trials {
		t.Fatalf("quarantined %d cells, want %d (one per poisoned trial)", len(sum.Quarantined), cfg.Trials)
	}
	for i, q := range sum.Quarantined {
		if !strings.Contains(q.Row, "panicproto") {
			t.Errorf("quarantined row %q does not name the poisoned protocol", q.Row)
		}
		if q.Trial != i {
			t.Errorf("quarantine order: got trial %d at %d", q.Trial, i)
		}
		if q.Seed == 0 {
			t.Errorf("quarantined cell lost its sub-seed")
		}
		if !strings.Contains(q.Err, "injected test panic") {
			t.Errorf("quarantine error lost the panic value: %q", q.Err)
		}
		if !strings.Contains(q.Stack, "runCellOnce") {
			t.Errorf("quarantine lost the stack trace")
		}
		if q.Attempts != 1 {
			t.Errorf("panic was retried (%d attempts); panics are deterministic", q.Attempts)
		}
	}
	if sum.Completed != cfg.Trials {
		t.Errorf("healthy row incomplete: %d cells, want %d", sum.Completed, cfg.Trials)
	}
	// The healthy table row renders; the poisoned row's aggregates are
	// empty but present.
	if sum.Table == nil || len(sum.Table.Rows) != 2 {
		t.Fatalf("table missing rows: %+v", sum.Table)
	}
	// summary.jsonl carries the quarantine lines.
	data, err := os.ReadFile(filepath.Join(dir, "summary.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), `"kind":"quarantined"`); got != cfg.Trials {
		t.Errorf("summary.jsonl has %d quarantine lines, want %d", got, cfg.Trials)
	}
	// Resume replays the quarantined cells rather than re-running them:
	// the poisoned registry entry is still installed, but even without
	// it the resume must not need to execute those cells.
	delete(Protocols, "panicproto")
	_, err = ResumeMatrixSweep(context.Background(), dir, Config{}, SweepOptions{})
	if err == nil {
		t.Fatal("resume validated a grid with an unregistered protocol — expected the manifest check to fail")
	}
}

// TestSweepQuarantineReplayedOnResume: interrupt a sweep whose grid
// includes a poisoned row, then resume; quarantined cells recorded
// before the interruption are replayed as failures, not re-executed.
func TestSweepQuarantineReplayedOnResume(t *testing.T) {
	registerPanicProto(t)
	m := Matrix{
		Protos:   []string{"geometric", "panicproto"},
		Ns:       []int{32},
		StopFrac: 1.0,
	}
	cfg := sweepTestConfig(1)
	dir := t.TempDir()
	sum, err := RunMatrixSweep(context.Background(), cfg, m, dir, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeMatrixSweep(context.Background(), dir, Config{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Replayed != resumed.Total {
		t.Errorf("complete sweep re-ran cells on resume: replayed %d of %d", resumed.Replayed, resumed.Total)
	}
	if len(resumed.Quarantined) != len(sum.Quarantined) {
		t.Errorf("quarantine list changed across resume: %d vs %d", len(resumed.Quarantined), len(sum.Quarantined))
	}
	if resumed.Table.Render() != sum.Table.Render() {
		t.Error("table changed across no-op resume")
	}
}

// TestSweepCellTimeout: with a timeout no real cell can meet, every
// cell is quarantined as a timeout — and the grid still completes.
func TestSweepCellTimeout(t *testing.T) {
	m := Matrix{Protos: []string{"geometric"}, Ns: []int{32}, StopFrac: 1.0}
	cfg := Config{Seed: 7, Trials: 2, Parallel: 2}
	sum, err := RunMatrixSweep(context.Background(), cfg, m, t.TempDir(), SweepOptions{CellTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Interrupted {
		t.Fatal("cell timeouts must not mark the sweep interrupted")
	}
	if len(sum.Quarantined) != 2 {
		t.Fatalf("quarantined %d, want 2", len(sum.Quarantined))
	}
	for _, q := range sum.Quarantined {
		if !strings.Contains(q.Err, "cell timeout") {
			t.Errorf("timeout quarantine error: %q", q.Err)
		}
	}
}

// TestSweepRejectsExistingDir: starting a fresh sweep into an already
// initialized directory is an error, not a silent merge.
func TestSweepRejectsExistingDir(t *testing.T) {
	dir := t.TempDir()
	m := Matrix{Protos: []string{"geometric"}, Ns: []int{32}, StopFrac: 1.0}
	cfg := Config{Seed: 7, Trials: 1}
	if _, err := RunMatrixSweep(context.Background(), cfg, m, dir, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMatrixSweep(context.Background(), cfg, m, dir, SweepOptions{}); err == nil ||
		!strings.Contains(err.Error(), "resume") {
		t.Fatalf("second sweep into the same dir: %v", err)
	}
}

// TestSweepResumeRejectsDamagedManifest: a manifest recording fewer than
// one trial or cell is corrupt, so resume fails and leaves table.txt as
// the recorded sweep wrote it, instead of building a table the sweep
// never asked for.
func TestSweepResumeRejectsDamagedManifest(t *testing.T) {
	m := Matrix{Protos: []string{"congest"}, Ns: []int{64}, StopFrac: 1.0}
	for _, damage := range []string{`"trials": 0,`, `"trials": -5,`, `"cells": 0,`} {
		dir := t.TempDir()
		if _, err := RunMatrixSweep(context.Background(), Config{Seed: 3, Trials: 1}, m, dir, SweepOptions{}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, sweep.ManifestName)
		man, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		field := damage[:strings.Index(damage, ":")]
		damaged := regexp.MustCompile(field+`: -?\d+,`).ReplaceAllString(string(man), damage)
		if damaged == string(man) {
			t.Fatalf("no %s field to damage in %s", field, man)
		}
		if err := os.WriteFile(path, []byte(damaged), 0o644); err != nil {
			t.Fatal(err)
		}
		table, err := os.ReadFile(filepath.Join(dir, "table.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeMatrixSweep(context.Background(), dir, Config{}, SweepOptions{}); err == nil {
			t.Errorf("%s: resume accepted the damaged manifest", damage)
		}
		if after, err := os.ReadFile(filepath.Join(dir, "table.txt")); err != nil || string(after) != string(table) {
			t.Errorf("%s: resume rewrote table.txt (err=%v)", damage, err)
		}
	}
}

// TestSweepRowsEarlyStop: once a cell errors, cells that have not yet
// started are skipped instead of running the rest of the grid. Every
// cell errs, so after the first failure at most `parallel` cells (the
// ones already holding a slot) can still run.
func TestSweepRowsEarlyStop(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		cfg := Config{Seed: 1, Trials: 10, Parallel: parallel}
		rows := []int{0, 1, 2, 3, 4, 5, 6, 7}
		var ran atomic.Int64
		_, err := sweepRowsCtx(context.Background(), cfg, xrand.New(1), rows,
			func(r int) string { return "row" },
			func(_ context.Context, r, trial int, rng *xrand.Rand) (int, error) {
				ran.Add(1)
				return 0, context.DeadlineExceeded
			})
		if err == nil {
			t.Fatal("error swallowed")
		}
		if n := ran.Load(); n > int64(parallel) {
			t.Errorf("parallel=%d: %d cells ran after the first failure (grid=%d)", parallel, n, len(rows)*10)
		}
	}
}

// goroutinePeak tracks the most goroutines seen above the count at its
// creation; sample may be called from any goroutine.
type goroutinePeak struct {
	base int
	peak atomic.Int64
}

func newGoroutinePeak() *goroutinePeak { return &goroutinePeak{base: runtime.NumGoroutine()} }

func (g *goroutinePeak) sample() {
	n := int64(runtime.NumGoroutine() - g.base)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
}

// TestSweepRowsBoundsGoroutines: the driver used to start one goroutine
// per (row, trial) cell before any cell ran, each then waiting on a
// semaphore, so a 100,000-trial sweep parked millions. At Parallel 1,
// 200 cells must never see more than Parallel + 2 goroutines above the
// baseline.
func TestSweepRowsBoundsGoroutines(t *testing.T) {
	cfg := Config{Seed: 1, Trials: 10, Parallel: 1}
	rows := make([]int, 20)
	g := newGoroutinePeak()
	_, err := sweepRows(cfg, xrand.New(1), rows, func(int) string { return "row" },
		func(_, _ int, _ *xrand.Rand) (int, error) {
			g.sample()
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := g.peak.Load(); p > int64(cfg.Parallel)+2 {
		t.Errorf("%d goroutines above the baseline during a Parallel=1 sweep of 200 cells, want <= %d", p, cfg.Parallel+2)
	}
}

// TestRunMatrixSweepBoundsGoroutines is TestSweepRowsBoundsGoroutines
// for the durable driver's cell launcher: 200 cells at Parallel 1,
// sampled from the progress callback after every cell.
func TestRunMatrixSweepBoundsGoroutines(t *testing.T) {
	cfg := Config{Seed: 1, Trials: 100, Parallel: 1}
	m := Matrix{Protos: []string{"congest", "geometric"}, Ns: []int{16}, MaxPhase: 2, StopFrac: 1}
	g := newGoroutinePeak()
	sum, err := RunMatrixSweep(context.Background(), cfg, m, t.TempDir(), SweepOptions{OnCell: func(int, int) { g.sample() }})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total < 200 || sum.Completed != sum.Total {
		t.Fatalf("%d of %d cells completed, want at least 200", sum.Completed, sum.Total)
	}
	if p := g.peak.Load(); p > int64(cfg.Parallel)+2 {
		t.Errorf("%d goroutines above the baseline during a Parallel=1 sweep of %d cells, want <= %d", p, sum.Total, cfg.Parallel+2)
	}
}
