package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"byzcount/internal/perf"
	"byzcount/internal/sim"
)

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help failed: %v", err)
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list failed: %v", err)
	}
}

func TestExptRequiresID(t *testing.T) {
	if err := run([]string{"expt"}); err == nil {
		t.Fatal("expt without id accepted")
	}
}

func TestExptUnknownID(t *testing.T) {
	if err := run([]string{"expt", "E99", "-quick", "-trials", "1"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExptQuick(t *testing.T) {
	if err := run([]string{"expt", "E8", "-quick", "-trials", "1"}); err != nil {
		t.Fatalf("expt E8 failed: %v", err)
	}
}

func TestExptCSVFormat(t *testing.T) {
	if err := run([]string{"expt", "E8", "-quick", "-trials", "1", "-format", "csv"}); err != nil {
		t.Fatalf("csv format failed: %v", err)
	}
}

func TestRunProtocolCongest(t *testing.T) {
	if err := run([]string{"run", "-proto", "congest", "-n", "64", "-d", "8", "-byz", "2"}); err != nil {
		t.Fatalf("run congest failed: %v", err)
	}
}

func TestRunProtocolLocalFakeAttack(t *testing.T) {
	if err := run([]string{"run", "-proto", "local", "-n", "64", "-d", "8", "-byz", "2", "-attack", "fake"}); err != nil {
		t.Fatalf("run local fake failed: %v", err)
	}
}

// runStdout runs the CLI in-process and returns what it printed to
// standard output.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("byzcount %s: %v", strings.Join(args, " "), err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRunFakeAttackParallelDelay: the fake-network adversary shares one
// mutable world across its Sequential procs. Under a delay model on a
// parallel engine it must run, and print exactly what the serial run
// prints.
func TestRunFakeAttackParallelDelay(t *testing.T) {
	args := []string{"run", "-proto", "local", "-attack", "fake", "-byz", "4", "-n", "64", "-delay", "uniform:1-4"}
	serial := runStdout(t, append(args[:len(args):len(args)], "-parallel", "1")...)
	parallel := runStdout(t, append(args[:len(args):len(args)], "-parallel", "4")...)
	if !strings.Contains(serial, "delay=uniform:1-4") {
		t.Fatalf("serial run printed no delay line:\n%s", serial)
	}
	if parallel != serial {
		t.Errorf("-parallel 4 output differs from -parallel 1:\n--- parallel 1\n%s--- parallel 4\n%s", serial, parallel)
	}
}

func TestRunProtocolGeometricSilent(t *testing.T) {
	if err := run([]string{"run", "-proto", "geometric", "-n", "64", "-byz", "1", "-attack", "silent"}); err != nil {
		t.Fatalf("run geometric failed: %v", err)
	}
}

func TestRunProtocolSupport(t *testing.T) {
	if err := run([]string{"run", "-proto", "support", "-n", "64", "-byz", "1"}); err != nil {
		t.Fatalf("run support failed: %v", err)
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if err := run([]string{"run", "-proto", "bogus"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunUnknownAttackFailsFast(t *testing.T) {
	err := run([]string{"run", "-proto", "congest", "-n", "64", "-byz", "2", "-attack", "bogus"})
	if err == nil {
		t.Fatal("unknown attack accepted")
	}
	// The error must teach the valid vocabulary, not just reject.
	for _, want := range []string{"crash", "fake", "silent", "spam"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("attack error %q does not list %q", err, want)
		}
	}
}

func TestRunChurnStopWithoutChurnRejected(t *testing.T) {
	err := run([]string{"run", "-proto", "congest", "-n", "64", "-churn-stop", "50"})
	if err == nil {
		t.Fatal("-churn-stop without -churn accepted (it used to be silently ignored)")
	}
	if !strings.Contains(err.Error(), "-churn") {
		t.Errorf("error %q does not explain the missing flag", err)
	}
}

// TestChurnPastNMinus3Rejected: a leave needs more than 3 nodes alive,
// so a churn rate K above n-3 let the joins outgrow the leaves and the
// network grow to K+3 nodes: run -churn 99999999999 -n 64 ran out of
// memory within seconds. run must fail with the churn error before the
// network exists, and matrix and sweep skip such a cell as
// incompatible. (The rate here fits a 32-bit int.)
func TestChurnPastNMinus3Rejected(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := run([]string{"run", "-churn", "2147483647", "-n", "64"})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "n-3 = 61") {
		t.Fatalf("run: err = %v, want the churn error", err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 16<<20 {
		t.Errorf("rejecting the churn rate allocated %d bytes", b)
	}
	for _, args := range [][]string{
		{"matrix", "-churn", "2147483647", "-n", "64"},
		{"sweep", "-churn", "2147483647", "-n", "64", "-out", filepath.Join(t.TempDir(), "sw")},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "1 cells skipped") {
			t.Errorf("%s: err = %v, want an empty grid of skipped cells", args[0], err)
		}
	}
}

func TestRunUnknownPlacementFailsFast(t *testing.T) {
	err := run([]string{"run", "-proto", "congest", "-n", "64", "-byz", "2", "-placement", "bogus"})
	if err == nil {
		t.Fatal("unknown placement accepted")
	}
	if !strings.Contains(err.Error(), "clustered") {
		t.Errorf("placement error %q does not list the valid placements", err)
	}
}

// TestRunChurnWithByzantine: the cross-product the CLI used to reject
// ("churn runs are benign-only for now") runs end-to-end.
func TestRunChurnWithByzantine(t *testing.T) {
	if err := run([]string{"run", "-proto", "congest", "-n", "64", "-d", "8",
		"-byz", "3", "-attack", "spam", "-churn", "2", "-churn-stop", "30", "-seed", "5"}); err != nil {
		t.Fatalf("churn+byzantine run failed: %v", err)
	}
}

func TestRunChurnCrashAttack(t *testing.T) {
	if err := run([]string{"run", "-proto", "congest", "-n", "64", "-byz", "4",
		"-attack", "crash", "-churn", "1", "-churn-stop", "20", "-seed", "5"}); err != nil {
		t.Fatalf("churn+crash run failed: %v", err)
	}
}

func TestMatrixRuns(t *testing.T) {
	if err := run([]string{"matrix", "-proto", "congest", "-adversary", "none,spam",
		"-byz-frac", "0,0.05", "-churn", "0,2", "-n", "48", "-trials", "1", "-max-phase", "6"}); err != nil {
		t.Fatalf("matrix failed: %v", err)
	}
}

// TestHugeMaxPhaseRuns: from -max-phase 83 the CONGEST round budget
// overflowed int, and run and matrix failed with "sim: negative
// maxRounds" (or ran on a wrapped budget).
func TestHugeMaxPhaseRuns(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-proto", "congest", "-n", "64", "-max-phase", "100", "-seed", "1"},
		{"matrix", "-n", "48", "-trials", "1", "-max-phase", "100"},
	} {
		if err := run(args); err != nil {
			t.Errorf("%s: %v", strings.Join(args, " "), err)
		}
	}
}

func TestMatrixUnknownAxisValue(t *testing.T) {
	if err := run([]string{"matrix", "-adversary", "bogus", "-n", "48", "-trials", "1"}); err == nil {
		t.Fatal("unknown adversary axis value accepted")
	}
	if err := run([]string{"matrix", "-n", "48,oops"}); err == nil {
		t.Fatal("malformed -n list accepted")
	}
}

func TestMatrixAllIncompatibleIsError(t *testing.T) {
	// spam needs congest: a grid slice with only incompatible cells must
	// say so instead of printing an empty table.
	if err := run([]string{"matrix", "-proto", "geometric", "-adversary", "spam",
		"-byz-frac", "0.05", "-n", "48", "-trials", "1"}); err == nil {
		t.Fatal("empty (all-skipped) matrix accepted")
	}
}

func TestBenchWritesRecord(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run([]string{"bench", "-quick", "-filter", "engine/flood/serial", "-out", out}); err != nil {
		t.Fatalf("bench failed: %v", err)
	}
	rec, err := perf.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != 1 || rec.Results[0].Name != "engine/flood/serial/n=1024" {
		t.Errorf("unexpected results: %+v", rec.Results)
	}
	if rec.Results[0].NsPerOp <= 0 || rec.Results[0].Metrics["msgs_per_sec"] <= 0 {
		t.Errorf("degenerate measurement: %+v", rec.Results[0])
	}
	if !rec.Quick {
		t.Error("quick flag not recorded")
	}
}

func TestBenchRejectsEmptyFilter(t *testing.T) {
	if err := run([]string{"bench", "-quick", "-filter", "no-such-benchmark"}); err == nil {
		t.Fatal("filter matching nothing accepted")
	}
}

func TestGraphCmdKinds(t *testing.T) {
	for _, kind := range []string{"hnd", "regular", "smallworld", "ring", "torus", "dumbbell"} {
		if err := run([]string{"graph", "-kind", kind, "-n", "64", "-d", "4"}); err != nil {
			t.Fatalf("graph %s failed: %v", kind, err)
		}
	}
	if err := run([]string{"graph", "-kind", "bogus"}); err == nil {
		t.Fatal("unknown graph kind accepted")
	}
}

func TestGraphCmdWritesEdgeList(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.edges")
	if err := run([]string{"graph", "-kind", "ring", "-n", "16", "-out", out}); err != nil {
		t.Fatalf("graph -out failed: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "n 16\n") {
		t.Errorf("edge list header wrong: %q", string(data[:16]))
	}
	if strings.Count(string(data), "\n") != 17 { // header + 16 edges
		t.Errorf("edge list line count wrong:\n%s", data)
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, tr := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"), filepath.Join(dir, "run.trace")
	if err := run([]string{"run", "-n", "64", "-cpuprofile", cpu, "-memprofile", mem, "-trace", tr}); err != nil {
		t.Fatalf("run with profiles failed: %v", err)
	}
	for _, path := range []string{cpu, mem, tr} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", filepath.Base(path), err)
		}
	}
}

func TestProfileFlagsOnEverySubcommand(t *testing.T) {
	// Each subcommand must accept the flags (a bad path proves the flag
	// was parsed: the error comes from creating the file). The trace
	// starts first, so every subcommand must also leave a non-empty
	// trace file behind, stopped on the error path.
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing", "cpu.prof")
	for _, cmd := range [][]string{
		{"list"}, {"expt", "E8"}, {"all"}, {"run"}, {"matrix"}, {"sweep"}, {"bench"}, {"graph"},
	} {
		tr := filepath.Join(dir, cmd[0]+".trace")
		err := run(append(cmd, "-trace", tr, "-cpuprofile", bad))
		if err == nil || !strings.Contains(err.Error(), "cpuprofile") {
			t.Errorf("%s -cpuprofile BAD: err %v, want a cpuprofile error", cmd[0], err)
		}
		if fi, err := os.Stat(tr); err != nil || fi.Size() == 0 {
			t.Errorf("%s -trace: file missing or empty (err %v)", cmd[0], err)
		}
		err = run(append(cmd, "-trace", bad))
		if err == nil || !strings.Contains(err.Error(), "trace") {
			t.Errorf("%s -trace BAD: err %v, want a trace error", cmd[0], err)
		}
	}
}

// TestCongestDegreeOneRejected: d=1 leaves Algorithm 2's trusted-suffix
// parameter undefined (equation (3) divides by ln d). Every command that
// builds congest cells must say so as an error, not panic.
func TestCongestDegreeOneRejected(t *testing.T) {
	for _, cmd := range [][]string{
		{"run", "-proto", "congest", "-n", "16", "-d", "1"},
		{"matrix", "-proto", "congest", "-n", "16", "-d", "1"},
		{"sweep", "-proto", "congest", "-n", "16", "-d", "1", "-out", filepath.Join(t.TempDir(), "sw")},
	} {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return run(cmd)
		}()
		if err == nil || !strings.Contains(err.Error(), `protocol "congest" needs degree d >= 2, got d=1`) {
			t.Errorf("%s at d=1: err %v, want the congest degree error", cmd[0], err)
		}
	}
}

// runFlagError runs the CLI and returns the *flagError it must fail
// with; main turns any error into exit status 1.
func runFlagError(t *testing.T, args ...string) *flagError {
	t.Helper()
	err := run(args)
	var fe *flagError
	if !errors.As(err, &fe) {
		t.Fatalf("byzcount %s: error %v, want a flag error", strings.Join(args, " "), err)
	}
	return fe
}

// TestRunZeroNodesRejected: -n 0 used to run the scenario default of
// 256 nodes while reporting n=0.
func TestRunZeroNodesRejected(t *testing.T) {
	if fe := runFlagError(t, "run", "-n", "0"); fe.flag != "n" || fe.value != 0 {
		t.Errorf("-n 0: %v", fe)
	}
}

// TestRunNegativeByzRejected: -byz -3 used to report byz=-3 and run a
// benign network.
func TestRunNegativeByzRejected(t *testing.T) {
	if fe := runFlagError(t, "run", "-byz", "-3", "-attack", "spam", "-n", "64"); fe.flag != "byz" || fe.value != -3 {
		t.Errorf("-byz -3: %v", fe)
	}
}

// TestRunNegativeMaxPhaseRejected: -max-phase -1 used to be accepted
// silently.
func TestRunNegativeMaxPhaseRejected(t *testing.T) {
	if fe := runFlagError(t, "run", "-max-phase", "-1"); fe.flag != "max-phase" || fe.value != -1 {
		t.Errorf("-max-phase -1: %v", fe)
	}
}

// TestGridFlagsRejected: each of these used to run a default or a
// different experiment without a word — -n 0 ran n=256 (and -n 256,0
// collapsed to one cell), -trials 0 ran 3 trials, -d 0 ran d=8 (run
// even printed d=0), negative churn, phase and fraction values were
// accepted, -byz-frac 1.5 failed as an "empty matrix", and run -drop
// -0.5 ran lossless. Each must now fail with a typed flag error, and a
// rejected sweep must not create its directory.
func TestGridFlagsRejected(t *testing.T) {
	type flagCase struct {
		args  []string
		flag  string
		value float64
	}
	// matrix and sweep share their grid flags (matrixFlags).
	grid := []flagCase{
		{[]string{"-n", "0"}, "n", 0},
		{[]string{"-n", "256,0"}, "n", 0},
		{[]string{"-trials", "0"}, "trials", 0},
		{[]string{"-trials", "-2"}, "trials", -2},
		{[]string{"-d", "0"}, "d", 0},
		{[]string{"-max-phase", "-1"}, "max-phase", -1},
		{[]string{"-byz-frac", "-0.1"}, "byz-frac", -0.1},
		{[]string{"-byz-frac", "1.5"}, "byz-frac", 1.5},
		{[]string{"-byz-frac", "0,1.5", "-adversary", "spam"}, "byz-frac", 1.5},
		{[]string{"-stop-frac", "2"}, "stop-frac", 2},
		{[]string{"-churn", "-1"}, "churn", -1},
		{[]string{"-churn", "0,-1"}, "churn", -1},
		{[]string{"-churn", "2", "-churn-stop", "-3"}, "churn-stop", -3},
	}
	sweepDir := filepath.Join(t.TempDir(), "sw")
	var cases []flagCase
	for _, g := range grid {
		cases = append(cases,
			flagCase{append([]string{"matrix"}, g.args...), g.flag, g.value},
			flagCase{append([]string{"sweep", "-out", "DIR"}, g.args...), g.flag, g.value})
	}
	cases = append(cases,
		flagCase{[]string{"expt", "E8", "-quick", "-trials", "0"}, "trials", 0},
		flagCase{[]string{"expt", "E8", "-quick", "-trials", "-2"}, "trials", -2},
		flagCase{[]string{"all", "-quick", "-trials", "0"}, "trials", 0},
		flagCase{[]string{"all", "-quick", "-trials", "-2"}, "trials", -2},
		flagCase{[]string{"run", "-d", "0"}, "d", 0},
		flagCase{[]string{"run", "-n", "2"}, "n", 2},
		flagCase{[]string{"run", "-drop", "-0.5"}, "drop", -0.5},
		flagCase{[]string{"run", "-drop", "1.5"}, "drop", 1.5},
		flagCase{[]string{"run", "-gst", "-5"}, "gst", -5},
		flagCase{[]string{"run", "-churn", "-2"}, "churn", -2},
		flagCase{[]string{"run", "-churn", "2", "-churn-stop", "-3"}, "churn-stop", -3},
	)
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			args := slices.Clone(tc.args)
			if i := slices.Index(args, "DIR"); i >= 0 {
				args[i] = sweepDir
			}
			fe := runFlagError(t, args...)
			if fe.flag != tc.flag || fe.value != tc.value {
				t.Errorf("got %v, want a -%s %g flag error", fe, tc.flag, tc.value)
			}
		})
	}
	if _, err := os.Stat(sweepDir); !os.IsNotExist(err) {
		t.Errorf("a rejected sweep created its directory (stat err %v)", err)
	}
}

// TestBadListElementNamesFlag: a list element that is not a number
// used to fail with an untyped `bad integer "1e3" in list "1e3"` that
// named no flag.
func TestBadListElementNamesFlag(t *testing.T) {
	sweepDir := filepath.Join(t.TempDir(), "sw")
	for _, c := range []struct{ flag, list, elem string }{
		{"n", "1e3", "1e3"},
		{"n", "256,oops", "oops"},
		{"byz-frac", "0.1x", "0.1x"},
		{"churn", "0, 2x", "2x"},
	} {
		for _, cmd := range [][]string{{"matrix"}, {"sweep", "-out", sweepDir}} {
			fe := runFlagError(t, slices.Concat(cmd, []string{"-" + c.flag, c.list})...)
			if fe.flag != c.flag || !strings.Contains(fe.Error(), strconv.Quote(c.elem)+" for -"+c.flag) {
				t.Errorf("%s -%s %q: got %v, want a -%s flag error naming %q", cmd[0], c.flag, c.list, fe, c.flag, c.elem)
			}
		}
	}
}

// TestBadSpecRejectedAtOnce: geo:NaN@4 used to hang run and matrix
// (the geometric draw never succeeds, so no round ever ended), and
// drop:NaN and partition:2@0-0 ran as a lossless network and as a
// partition that never heals. Each must fail before anything runs.
func TestBadSpecRejectedAtOnce(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-n", "64", "-delay", "geo:NaN@4"},
		{"matrix", "-proto", "congest", "-n", "64", "-delay", "geo:NaN@4", "-trials", "1"},
		{"run", "-n", "64", "-fault", "drop:NaN"},
		{"run", "-n", "64", "-fault", "partition:2@0-0"},
	} {
		done := make(chan error, 1)
		go func() { done <- run(args) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "bad") {
				t.Errorf("%s: err = %v, want a bad-spec error", strings.Join(args, " "), err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: still running after 10 s", strings.Join(args, " "))
		}
	}
}

// TestTinyGeometricPFinishes: a geometric latency drew about 1/P
// Bernoulli trials per message before capping at CAP, so geo:1e-9@4
// ran for minutes; a capped draw now stops at CAP-1 trials.
func TestTinyGeometricPFinishes(t *testing.T) {
	for _, spec := range []string{"geo:1e-9@4", "geo:1e-300@4"} {
		done := make(chan error, 1)
		go func() { done <- run([]string{"run", "-n", "64", "-delay", spec}) }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run -delay %s: %v", spec, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("run -delay %s: still running after 10 s", spec)
		}
	}
}

// TestBenchDiffToleranceRejected: -tolerance NaN passed every
// regression (exit 0) and -tolerance -1 failed unchanged records; each
// must be a typed flag error.
func TestBenchDiffToleranceRejected(t *testing.T) {
	for _, v := range []string{"NaN", "-1", "+Inf"} {
		t.Run(v, func(t *testing.T) {
			fe := runFlagError(t, "bench", "-diff", "-tolerance", v, "old.json", "new.json")
			if fe.flag != "tolerance" || strconv.FormatFloat(fe.value, 'g', -1, 64) != v {
				t.Errorf("-tolerance %s: %v", v, fe)
			}
		})
	}
}

// TestRunHugeDelayRejected: a delay bound of 10^8 ticks used to build a
// delivery ring of 10^8 rows per vertex and get the process OOM-killed.
// It must fail with the parser's typed error before the ring exists.
func TestRunHugeDelayRejected(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := run([]string{"run", "-n", "64", "-delay", "uniform:1-100000000"})
	runtime.ReadMemStats(&after)
	var be *sim.DelayBoundError
	if !errors.As(err, &be) || be.Bound != 100000000 {
		t.Fatalf("error %v, want a *sim.DelayBoundError at bound 10^8", err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 16<<20 {
		t.Errorf("rejecting the spec allocated %d bytes", b)
	}
}
