package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"byzcount/internal/sweep"
)

// sweepChildEnv marks a re-exec of the test binary as the sweep child:
// instead of running tests, TestMain runs `byzcount sweep -out $dir`
// with the shared grid flags, so the parent test can deliver a real
// SIGTERM to a real process mid-sweep.
const sweepChildEnv = "BYZCOUNT_SWEEP_CHILD_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(sweepChildEnv); dir != "" {
		if err := run(append(sweepGridArgs(true), "-progress", "-out", dir)); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(3)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweepGridArgs is the grid both the clean run and the interrupted
// child execute — identical flags are what makes the byte-identity
// comparison meaningful. The smoke grid (default) runs in well under a
// second; the SIGTERM test uses the heavy grid so that when the signal
// lands there is still most of a second of work left to interrupt.
func sweepGridArgs(heavy bool) []string {
	n := "48,64"
	if heavy {
		n = "512,768"
	}
	return []string{"sweep",
		"-proto", "congest", "-n", n, "-byz-frac", "0,0.1",
		"-adversary", "silent", "-stop-frac", "1",
		"-seed", "7", "-trials", "4", "-parallel", "2"}
}

func TestSweepCmdFlagValidation(t *testing.T) {
	if err := run([]string{"sweep"}); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("no -out/-resume: %v", err)
	}
	if err := run([]string{"sweep", "-out", "a", "-resume", "b"}); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("both -out and -resume: %v", err)
	}
}

func TestSweepCmdEndToEnd(t *testing.T) {
	dir := t.TempDir()
	if err := run(append(sweepGridArgs(false), "-out", dir)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{sweep.ManifestName, sweep.LogName, sweep.CheckpointName, "table.txt", "summary.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("sweep did not write %s: %v", name, err)
		}
	}
	man, err := sweep.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seed != 7 || man.Trials != 4 {
		t.Errorf("manifest seed/trials: %+v", man)
	}
	// A fresh sweep into the same directory must refuse.
	if err := run(append(sweepGridArgs(false), "-out", dir)); err == nil {
		t.Error("second -out into an existing sweep directory succeeded")
	}
	// A resume of a complete sweep replays everything and succeeds.
	if err := run([]string{"sweep", "-resume", dir}); err != nil {
		t.Errorf("no-op resume: %v", err)
	}
}

// TestSweepCmdSIGTERMResume is the end-to-end robustness test: a real
// child process is SIGTERMed mid-sweep, exits nonzero with a resumable
// directory, and the resumed run's table.txt is byte-identical to an
// uninterrupted run's.
func TestSweepCmdSIGTERMResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cleanDir := t.TempDir()
	if err := run(append(sweepGridArgs(true), "-out", cleanDir)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(cleanDir, "table.txt"))
	if err != nil {
		t.Fatal(err)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), sweepChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Watch the child's -progress lines and SIGTERM it once a couple of
	// cells have landed in the log — early enough that most of the grid
	// is still ahead of it (cells take tens of milliseconds; signal
	// delivery is microseconds).
	signaled := false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		var done, total int
		if _, err := fmt.Sscanf(sc.Text(), "sweep: %d/%d cells", &done, &total); err != nil {
			continue
		}
		if !signaled && done >= 2 {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			signaled = true
		}
	}
	err = cmd.Wait()
	if !signaled {
		// The grid finished before the signal landed — the interruption
		// path was not exercised; a larger grid would be needed. Don't
		// fail spuriously on a fast machine, but say so.
		t.Skipf("child completed before SIGTERM (err=%v); grid too small for this machine", err)
	}
	if err == nil {
		t.Fatal("SIGTERMed child exited zero")
	}
	// The directory must be resumable and the resumed table identical.
	if err := run([]string{"sweep", "-resume", dir}); err != nil {
		t.Fatalf("resume after SIGTERM: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "table.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed table differs from uninterrupted run:\n--- resumed ---\n%s--- clean ---\n%s", got, want)
	}
	// The log replayed: the checkpoint must show a completed grid.
	var ck sweep.Checkpoint
	data, err := os.ReadFile(filepath.Join(dir, sweep.CheckpointName))
	if err == nil {
		err = json.Unmarshal(data, &ck)
	}
	if err != nil || ck.Interrupted || ck.Completed != ck.Total {
		t.Errorf("post-resume checkpoint: %+v err=%v", ck, err)
	}
}

func TestBenchDiffToleranceOverrideCmd(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	cur := filepath.Join(dir, "new.json")
	write := func(path string, ns float64) {
		data := fmt.Sprintf(`{"schema":"byzcount-bench/v1","results":[{"name":"engine/x","ns_per_op":%g}]}`, ns)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(old, 100)
	write(cur, 200)
	// 2x slowdown: fails the default 0.25 tolerance...
	if err := run([]string{"bench", "-diff", old, cur}); err == nil {
		t.Error("2x slowdown passed the default tolerance")
	}
	// ...passes with a loosening override...
	if err := run([]string{"bench", "-diff", "-tolerance-override", "engine/*=1.5", old, cur}); err != nil {
		t.Errorf("override did not loosen the gate: %v", err)
	}
	// ...and a malformed override fails flag parsing.
	if err := run([]string{"bench", "-diff", "-tolerance-override", "bogus", old, cur}); err == nil {
		t.Error("malformed override accepted")
	}
}
