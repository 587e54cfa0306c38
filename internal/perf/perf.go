// Package perf is the repository's standing performance record: a small
// self-contained benchmark harness (no testing.B dependency, so it runs
// inside the byzcount binary), the standard workload suite covering the
// engine hot path and the E1-E20 experiment regenerations, and a
// machine-readable result format (BENCH.json) that CI archives on every
// run. The trajectory this produces is what makes speedups — and
// regressions — visible instead of anecdotal.
//
// The harness mirrors go test -bench semantics: each benchmark is
// calibrated by doubling the iteration count until the timed run meets
// its minimum duration, ns/op, B/op, and allocs/op are derived from the
// final calibrated run, and workload-specific rates (msgs/sec,
// rounds/sec) ride along in Result.Metrics.
package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Schema identifies the BENCH.json format; bump on incompatible change.
const Schema = "byzcount-bench/v1"

// Totals carries workload-specific unit counts out of a timed run, from
// which Measure derives rate metrics.
type Totals struct {
	// Msgs is the number of messages the workload delivered.
	Msgs int64
	// Rounds is the number of engine rounds the workload executed.
	Rounds int64
}

// Result is one benchmark's measurement.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Record is the full BENCH.json document: environment provenance plus
// one Result per benchmark.
type Record struct {
	Schema     string   `json:"schema"`
	GitSHA     string   `json:"git_sha"`
	GitDirty   bool     `json:"git_dirty"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Quick      bool     `json:"quick"`
	StartedAt  string   `json:"started_at"`
	WallSecs   float64  `json:"wall_secs"`
	Results    []Result `json:"results"`
}

// Benchmark is one entry of the suite. Setup builds the workload once
// (outside the timed region) and returns the iteration function; fn(n)
// executes n iterations and reports unit totals for rate metrics.
type Benchmark struct {
	Name string
	// Warmup iterations run after Setup and before any timing, so that
	// measurements see the steady state (arenas and scratch buffers at
	// their high-water marks), not the warm-up transient.
	Warmup int
	// MinTime is the target duration of the timed run (default 1s).
	MinTime time.Duration
	// MaxIters caps the calibrated iteration count; 0 means uncapped.
	MaxIters int
	Setup    func() (func(n int) (Totals, error), error)
}

// Measure runs one benchmark to calibration and returns its Result.
func (b Benchmark) Measure() (Result, error) {
	fn, err := b.Setup()
	if err != nil {
		return Result{}, fmt.Errorf("perf: %s setup: %w", b.Name, err)
	}
	if b.Warmup > 0 {
		if _, err := fn(b.Warmup); err != nil {
			return Result{}, fmt.Errorf("perf: %s warmup: %w", b.Name, err)
		}
	}
	minTime := b.MinTime
	if minTime <= 0 {
		minTime = time.Second
	}
	n := 1
	for {
		if b.MaxIters > 0 && n > b.MaxIters {
			n = b.MaxIters
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		totals, err := fn(n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return Result{}, fmt.Errorf("perf: %s: %w", b.Name, err)
		}
		if elapsed >= minTime || (b.MaxIters > 0 && n >= b.MaxIters) {
			res := Result{
				Name:        b.Name,
				Iterations:  n,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
			}
			secs := elapsed.Seconds()
			if secs > 0 && (totals.Msgs > 0 || totals.Rounds > 0) {
				res.Metrics = map[string]float64{}
				if totals.Msgs > 0 {
					res.Metrics["msgs_per_sec"] = float64(totals.Msgs) / secs
				}
				if totals.Rounds > 0 {
					res.Metrics["rounds_per_sec"] = float64(totals.Rounds) / secs
				}
			}
			return res, nil
		}
		n *= 2
	}
}

// NewRecord returns a Record with the environment provenance filled in.
func NewRecord(quick bool) *Record {
	sha, dirty := GitState()
	return &Record{
		Schema:     Schema,
		GitSHA:     sha,
		GitDirty:   dirty,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      quick,
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}
}

// GitState reports the checked-out commit and whether the tree is
// dirty. Outside a git checkout (or without git) it falls back to the
// GITHUB_SHA environment variable, then to "unknown". Exported because
// the sweep manifest records the same provenance.
func GitState() (string, bool) {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	} else if env := os.Getenv("GITHUB_SHA"); env != "" {
		sha = env
	}
	dirty := false
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		dirty = len(strings.TrimSpace(string(out))) > 0
	}
	return sha, dirty
}

// WriteFile writes the record as indented JSON.
func (r *Record) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile parses a BENCH.json and validates it: the schema tag, and
// for every result a name no other result has and a positive, finite
// ns_per_op. Against a baseline entry of 0 ns/op any time reads as
// ratio 0, never a regression, and a name listed twice would be
// compared twice, so bench -diff must not see either.
func ReadFile(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perf: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	seen := make(map[string]bool, len(r.Results))
	for _, res := range r.Results {
		if !(res.NsPerOp > 0) || math.IsInf(res.NsPerOp, 1) {
			return nil, fmt.Errorf("perf: %s: result %q: ns_per_op %v, want a positive finite number", path, res.Name, res.NsPerOp)
		}
		if seen[res.Name] {
			return nil, fmt.Errorf("perf: %s: result %q listed twice", path, res.Name)
		}
		seen[res.Name] = true
	}
	return &r, nil
}
