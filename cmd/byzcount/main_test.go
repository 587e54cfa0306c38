package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"byzcount/internal/perf"
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
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := run([]string{"run", "-n", "64", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatalf("run with profiles failed: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", filepath.Base(path), err)
		}
	}
}

func TestProfileFlagsOnEverySubcommand(t *testing.T) {
	// Each subcommand must accept the flags (a bad path proves the flag
	// was parsed: the error comes from creating the file).
	bad := filepath.Join(t.TempDir(), "missing", "cpu.prof")
	for _, cmd := range [][]string{
		{"list"}, {"expt", "E8"}, {"all"}, {"run"}, {"matrix"}, {"sweep"}, {"bench"}, {"graph"},
	} {
		err := run(append(cmd, "-cpuprofile", bad))
		if err == nil || !strings.Contains(err.Error(), "cpuprofile") {
			t.Errorf("%s -cpuprofile BAD: err %v, want a cpuprofile error", cmd[0], err)
		}
	}
}
