package perf

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMeasureFloodSteadyStateAllocFree: the serial flood benchmark —
// the workload BENCH.json records as engine/flood/serial — must report
// zero steady-state allocations per round after its warm-up.
func TestMeasureFloodSteadyStateAllocFree(t *testing.T) {
	b := floodBenchmark("engine/flood/serial/test", 256, 8, 1, "", 20*time.Millisecond)
	// Warm past the next MessagesByRound capacity boundary (2048): the
	// calibration ladder adds at most 255 rounds, so every timed run
	// stays within reserved capacity and must allocate nothing at all.
	b.Warmup = 1300
	b.MaxIters = 128
	// Measure counts the whole process's mallocs, and with a second P
	// the runtime's own bookkeeping (a thread start, a GC worker's
	// timer, a goroutine descriptor) can land inside the window and read
	// as 0.01-0.04 allocs/round. The engine is serial, so hold one P, as
	// testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res, err := b.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocsPerOp != 0 {
		t.Errorf("serial flood allocates in steady state: %.2f allocs/round, want 0", res.AllocsPerOp)
	}
	if res.Metrics["msgs_per_sec"] <= 0 || res.Metrics["rounds_per_sec"] <= 0 {
		t.Errorf("rate metrics missing: %+v", res.Metrics)
	}
}

// TestMeasureCalibrates: the harness doubles iterations until the
// timed run meets MinTime.
func TestMeasureCalibrates(t *testing.T) {
	calls := []int{}
	b := Benchmark{
		Name:    "calib",
		MinTime: 20 * time.Millisecond,
		Setup: func() (func(int) (Totals, error), error) {
			return func(n int) (Totals, error) {
				calls = append(calls, n)
				time.Sleep(time.Duration(n) * time.Millisecond)
				return Totals{}, nil
			}, nil
		},
	}
	res, err := b.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 16 {
		t.Errorf("calibration stopped at %d iterations (calls %v), want >= 16", res.Iterations, calls)
	}
	if res.NsPerOp < float64(time.Millisecond.Nanoseconds()) {
		t.Errorf("ns/op %.0f below the 1ms floor of the workload", res.NsPerOp)
	}
}

// TestSuiteShape: the suite covers the engine micro-benchmarks
// (static — broadcast and per-edge flood — virtual-time — jitter and
// sparse lanes — churn, and churn-byz), the graph
// substrate workloads (build-hnd, build-ws, build-regular, bfs), and all
// twenty experiments; names are unique, and the filter selects by
// substring.
func TestSuiteShape(t *testing.T) {
	suite := Suite(SuiteConfig{Quick: true})
	if len(suite) != 17+20 {
		t.Fatalf("suite has %d benchmarks, want 37", len(suite))
	}
	seen := map[string]bool{}
	experiments := 0
	for _, b := range suite {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
		if strings.HasPrefix(b.Name, "expt/") {
			experiments++
			if b.MaxIters != 1 {
				t.Errorf("%s: quick experiment MaxIters = %d, want 1", b.Name, b.MaxIters)
			}
		}
	}
	if experiments != 20 {
		t.Errorf("suite has %d experiment benchmarks, want 20", experiments)
	}
	if !seen["engine/flood/serial/n=1024"] {
		t.Error("suite is missing engine/flood/serial/n=1024")
	}
	if !seen["engine/flood-edges/serial/n=1024"] {
		t.Error("suite is missing engine/flood-edges/serial/n=1024")
	}
	if !seen["engine/churn-flood/serial/n=1024"] {
		t.Error("suite is missing engine/churn-flood/serial/n=1024")
	}
	if !seen["graph/build-hnd/n=4096"] {
		t.Error("suite is missing graph/build-hnd/n=4096")
	}
	if !seen["graph/bfs/n=4096"] {
		t.Error("suite is missing graph/bfs/n=4096")
	}
	if !seen["engine/churn-byz/serial/n=1024"] {
		t.Error("suite is missing engine/churn-byz/serial/n=1024")
	}
	if !seen["engine/vt-flood/jitter/serial/n=1024"] {
		t.Error("suite is missing engine/vt-flood/jitter/serial/n=1024")
	}
	if !seen["engine/vt-flood/sparse/serial/n=1024"] {
		t.Error("suite is missing engine/vt-flood/sparse/serial/n=1024")
	}
	if !seen["engine/vt-flood/sparse/parallel=8/n=1024"] {
		t.Error("suite is missing engine/vt-flood/sparse/parallel=8/n=1024")
	}
	sparseFiltered := Suite(SuiteConfig{Quick: true, Filter: "vt-flood/sparse"})
	if len(sparseFiltered) != 2 {
		t.Errorf("filter vt-flood/sparse kept %d benchmarks, want 2", len(sparseFiltered))
	}
	filtered := Suite(SuiteConfig{Quick: true, Filter: "engine/flood"})
	if len(filtered) != 4 {
		t.Errorf("filter engine/flood kept %d benchmarks, want 4", len(filtered))
	}
	churnFiltered := Suite(SuiteConfig{Quick: true, Filter: "churn-flood"})
	if len(churnFiltered) != 2 {
		t.Errorf("filter churn-flood kept %d benchmarks, want 2", len(churnFiltered))
	}
}

// TestExperimentBenchmarkRuns: one quick experiment regeneration goes
// end to end through the harness.
func TestExperimentBenchmarkRuns(t *testing.T) {
	res, err := experimentBenchmark("E8", true).Measure()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("quick experiment ran %d iterations, want 1", res.Iterations)
	}
	if res.NsPerOp <= 0 {
		t.Errorf("ns/op %.0f, want > 0", res.NsPerOp)
	}
}

// TestRecordRoundTrip: BENCH.json writes, reads back, and validates.
func TestRecordRoundTrip(t *testing.T) {
	rec := NewRecord(true)
	if rec.Schema != Schema {
		t.Fatalf("schema %q", rec.Schema)
	}
	if rec.GOMAXPROCS < 1 || rec.GoVersion == "" || rec.StartedAt == "" {
		t.Fatalf("provenance incomplete: %+v", rec)
	}
	rec.Results = append(rec.Results,
		Result{Name: "a", NsPerOp: 1, Iterations: 1, Metrics: map[string]float64{"msgs_per_sec": 5}},
		Result{Name: "b", NsPerOp: 2, Iterations: 1},
	)
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 || got.Results[0].Name != "a" || got.Results[1].Name != "b" ||
		got.Results[0].Metrics["msgs_per_sec"] != 5 {
		t.Errorf("round trip mangled results: %+v", got.Results)
	}
}

// TestReadFileRejectsWrongSchema guards the CI consumer against stale
// or foreign files.
func TestReadFileRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	rec := NewRecord(false)
	rec.Schema = "other/v0"
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("wrong schema accepted")
	}
}

// TestReadFileRejectsBadEntries: a baseline entry of 0 or negative
// ns/op read as ratio 0.00x, so bench -diff passed a 10^12 ns/op entry
// against it, and a record naming one result twice had both rows
// compared. ReadFile rejects both with an error naming the file and
// the entry, and so does the diff that reads it.
func TestReadFileRejectsBadEntries(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, results ...Result) string {
		rec := NewRecord(false)
		rec.Results = results
		path := filepath.Join(dir, name)
		if err := rec.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cur := write("cur.json", Result{Name: "engine/x", NsPerOp: 1e12})
	for _, tc := range []struct {
		name    string
		results []Result
		entry   string
	}{
		{"zero", []Result{{Name: "engine/x", NsPerOp: 0}}, "engine/x"},
		{"negative", []Result{{Name: "a", NsPerOp: 3}, {Name: "engine/x", NsPerOp: -5}}, "engine/x"},
		{"duplicate", []Result{{Name: "engine/x", NsPerOp: 3}, {Name: "b", NsPerOp: 3}, {Name: "engine/x", NsPerOp: 4}}, "engine/x"},
	} {
		path := write(tc.name+".json", tc.results...)
		rec, err := ReadFile(path)
		if err == nil || rec != nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.entry) {
			t.Errorf("%s: ReadFile = %v, %v; want an error naming %s and %q", tc.name, rec, err, path, tc.entry)
		}
		if _, err := DiffOverrides(path, cur, 0.5, nil); err == nil {
			t.Errorf("%s: bench -diff accepted the baseline", tc.name)
		}
		if _, err := DiffOverrides(cur, path, 0.5, nil); err == nil {
			t.Errorf("%s: bench -diff accepted the new record", tc.name)
		}
	}
}

// TestCommittedRecordsRead: every committed BENCH_*.json in this
// package's format passes ReadFile's checks.
func TestCommittedRecordsRead(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var head struct{ Schema string }
		if json.Unmarshal(data, &head) != nil || head.Schema != Schema {
			continue // a paired end-to-end record, another format
		}
		if _, err := ReadFile(path); err != nil {
			t.Error(err)
		}
		read++
	}
	if read < 4 {
		t.Fatalf("read %d committed records, want BENCH_PR5/8/9 and BENCH_SCALING at least", read)
	}
}

// FuzzReadFile: for any file content ReadFile does not panic, and
// either fails with an error naming the file and returns no record, or
// returns a record of this schema whose results have distinct names
// and positive, finite ns/op. The committed corpus (testdata/fuzz)
// holds a valid record, entries of 0 and negative ns/op, a duplicate
// name, a truncated copy and a wrong schema.
func FuzzReadFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "BENCH.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := ReadFile(path)
		if err != nil {
			if rec != nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("error %v (record %v): want no record and an error naming %s", err, rec, path)
			}
			return
		}
		if rec.Schema != Schema {
			t.Fatalf("accepted schema %q", rec.Schema)
		}
		seen := map[string]bool{}
		for _, res := range rec.Results {
			if !(res.NsPerOp > 0) || math.IsInf(res.NsPerOp, 1) || seen[res.Name] {
				t.Fatalf("accepted result %q with ns_per_op %v (seen before: %v)", res.Name, res.NsPerOp, seen[res.Name])
			}
			seen[res.Name] = true
		}
	})
}
