// Command perfbench is byzcount's end-to-end benchmark. perfbench/run.py
// builds it and runs it from the repository root:
//
//	python3 perfbench/run.py --workload tables|sweep|scale --seed N --seconds S --trace 0|1
//
// Every repetition runs in a fresh child process (the same binary with
// the "child" argument), one at a time, so each sees a cold substrate
// cache and has its own peak RSS. With --trace 0 the parent repeats the
// workload for S seconds and prints the end-to-end metrics as medians;
// with --trace 1 it runs the rebuild self-test, one untraced run at
// full parallelism, one untraced serial run and one serial traced run,
// checks that all of them produced the same outputs, and prints the
// per-layer metrics. The last line of standard output is the result
// object; the line before it is the record with the provenance and
// every sample.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"byzcount/internal/perf"
)

const (
	// deadline bounds one invocation; children are killed when it passes.
	deadline = 170 * time.Second
	// probes is the number of set-up-only children per --trace 0 run, on
	// top of one set-up sample per repetition.
	probes = 12
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	if err := parentMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childMain runs one mode of one workload and prints its result as JSON.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	mode := fs.String("mode", "rep", "probe|rep|serial|traced|selftest")
	workload := fs.String("workload", "", "tables|sweep|scale")
	seed := fs.Uint64("seed", goldenSeed, "workload seed")
	dir := fs.String("dir", "", "scratch directory for sweep logs")
	gitSHA := fs.String("git-sha", "unknown", "recorded in sweep manifests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: golden.json:", err)
		return 2
	}
	par := runtime.GOMAXPROCS(0)
	if *mode == "serial" || *mode == "traced" {
		par = 1
	}
	entry := time.Now()
	var res result
	switch *mode {
	case "probe":
	case "rep", "serial":
		switch *workload {
		case "tables":
			res = runTables(*seed, par, g)
		case "sweep":
			res = runSweep(*seed, par, *dir, *gitSHA, g)
		case "scale":
			res = runScale(*seed, par, g)
		}
	case "traced":
		switch *workload {
		case "tables":
			res = tracedTables(*seed)
		case "sweep":
			res = tracedSweepRun(*seed, *dir)
		case "scale":
			res = tracedScale(*seed)
		}
	case "selftest":
		res = runSelfTest(*seed, *dir)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown mode %q\n", *mode)
		return 2
	}
	res.Entry = entry.UnixNano()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

// sample is one child's result plus what the parent measured of it.
type sample struct {
	result
	Setup float64 `json:"setup_s"`
	CPU   float64 `json:"cpu_s"`
	RSS   float64 `json:"peak_rss_mb"`
}

// runner spawns children of one invocation.
type runner struct {
	ctx      context.Context
	exe      string
	workload string
	seed     uint64
	scratch  string
	gitSHA   string
	nproc    int
	n        int
}

// spawn runs one child to completion and measures its set-up time, CPU
// time and peak RSS.
func (r *runner) spawn(mode string) (sample, error) {
	r.n++
	dir := filepath.Join(r.scratch, fmt.Sprintf("%s-%d", mode, r.n))
	defer os.RemoveAll(dir)
	cmd := exec.CommandContext(r.ctx, r.exe, "child", "-mode", mode, "-workload", r.workload,
		"-seed", strconv.FormatUint(r.seed, 10), "-dir", dir, "-git-sha", r.gitSHA)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(r.nproc))
	// A child outlives neither the deadline nor a killed parent.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return sample{}, fmt.Errorf("%s child: %w", mode, err)
	}
	var s sample
	if err := json.Unmarshal(out.Bytes(), &s.result); err != nil {
		return sample{}, fmt.Errorf("%s child output: %w", mode, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return sample{}, errors.New("no rusage for the child process")
	}
	s.Setup = float64(s.Entry-start.UnixNano()) / 1e9
	s.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	s.RSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return s, nil
}

// rate is n per second of secs, 0 for a repetition that failed before
// it took any time.
func rate(n, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return n / secs
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func parentMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "tables|sweep|scale")
	seed := fs.Uint64("seed", goldenSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "measuring time of a --trace 0 run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloadParams[*workload]; !ok {
		return fmt.Errorf("unknown workload %q (want tables, sweep or scale)", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err := checkBenchmarkFile("BENCHMARK.json"); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	work := os.Getenv("PERFBENCH_WORK")
	if work == "" {
		work = filepath.Join(".bench_build", "perfbench")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	// Keep git from searching above the checkout for a repository.
	if cwd, err := os.Getwd(); err == nil {
		os.Setenv("GIT_CEILING_DIRECTORIES", filepath.Dir(cwd))
	}
	sha, dirty := perf.GitState()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	r := &runner{ctx: ctx, exe: exe, workload: *workload, seed: *seed, scratch: scratch,
		gitSHA: sha, nproc: runtime.NumCPU()}
	rec := map[string]any{
		"schema":     "byzcount-perfbench/v1",
		"workload":   *workload,
		"params":     workloadParams[*workload],
		"seed":       *seed,
		"trace":      *trace,
		"git_sha":    sha,
		"git_dirty":  dirty,
		"go_version": runtime.Version(),
		"nproc":      r.nproc,
		"gomaxprocs": r.nproc,
		"cores_note": fmt.Sprintf("children ran with GOMAXPROCS, Parallel and Workers = nproc = %d; "+
			"the earlier BENCH_*.json parallel numbers all come from 1-core machines", r.nproc),
	}
	var out outcome
	if *trace == 0 {
		out, err = r.measure(time.Duration(*seconds)*time.Second, rec)
	} else {
		out, err = r.traced(rec)
	}
	if err != nil {
		return err
	}
	if out.Attempted > 0 {
		rec["failed_frac"] = float64(out.Failed) / float64(out.Attempted)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	if err := enc.Encode(out); err != nil {
		return err
	}
	if !out.Correct {
		return errors.New("output checks failed; see the record line")
	}
	return nil
}

// measure repeats the workload in cold children for the measuring time
// and reports the end-to-end metrics as medians over the repetitions.
func (r *runner) measure(seconds time.Duration, rec map[string]any) (outcome, error) {
	var reps []sample
	start := time.Now()
	for {
		t := time.Now()
		s, err := r.spawn("rep")
		if err != nil {
			return outcome{}, err
		}
		reps = append(reps, s)
		// Stop when another repetition would run past the measuring time.
		if time.Since(start)+time.Since(t) > seconds {
			break
		}
	}
	var setups []float64
	for i := 0; i < probes; i++ {
		s, err := r.spawn("probe")
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, s.Setup)
	}
	out := outcome{Correct: true}
	var errs []string
	var wall, cpu, rss, cells, msgs []float64
	first := reps[0].result
	for i, s := range reps {
		out.Attempted += s.Attempted
		out.Failed += s.Failed
		errs = append(errs, s.Errors...)
		// Repetitions of one seed must agree with the first, operation
		// by operation where the workload names its operations.
		if s.Digest != first.Digest {
			bad := s.Attempted
			if len(s.Parts) > 0 {
				bad = 0
				for id, d := range s.Parts {
					if first.Parts[id] != d {
						bad++
					}
				}
			}
			out.Failed += bad
			errs = append(errs, fmt.Sprintf("repetition %d: outputs differ from repetition 0", i))
		}
		setups = append(setups, s.Setup)
		wall = append(wall, s.Wall)
		cpu = append(cpu, s.CPU)
		rss = append(rss, s.RSS)
		cells = append(cells, rate(s.Ops, s.OpsWall))
		msgs = append(msgs, rate(s.Msgs, s.Wall))
		reps[i].Parts = nil // checked above; too long for the record
	}
	out.Correct = out.Failed == 0 && len(errs) == 0
	vals := map[string]float64{
		"wall_s":      median(wall),
		"setup_s":     median(setups),
		"cpu_s":       median(cpu),
		"peak_rss_mb": median(rss),
		"cells_per_s": median(cells),
		"msgs_per_s":  median(msgs),
	}
	out.Metrics = map[string]metricValue{}
	for _, m := range endToEnd {
		out.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	rec["repetitions"] = reps
	rec["setup_samples"] = setups
	rec["errors"] = errs
	return out, nil
}

// traced runs the self-test, an untraced run at full parallelism, an
// untraced serial run and the serial traced run, and reports the
// per-layer metrics when all of them agree.
func (r *runner) traced(rec map[string]any) (outcome, error) {
	runs := map[string]sample{}
	for _, mode := range []string{"selftest", "rep", "serial", "traced"} {
		s, err := r.spawn(mode)
		if err != nil {
			return outcome{}, err
		}
		runs[mode] = s
	}
	rec["runs"] = runs
	out := outcome{Metrics: map[string]metricValue{}}
	var errs []string
	for _, mode := range []string{"selftest", "rep", "serial", "traced"} {
		s := runs[mode]
		out.Attempted += s.Attempted
		out.Failed += s.Failed
		for _, e := range s.Errors {
			errs = append(errs, mode+": "+e)
		}
	}
	tr, ser, par := runs["traced"], runs["serial"], runs["rep"]
	if tr.Digest != ser.Digest || ser.Digest != par.Digest {
		out.Failed += tr.Attempted
		errs = append(errs, "traced, serial and parallel outputs differ")
	}
	layers := tr.Layers
	if layers["expt.driver_s"] < 0 {
		errs = append(errs, "layer spans overlap: expt.driver_s is negative")
	}
	rec["errors"] = errs
	out.Correct = out.Failed == 0 && len(errs) == 0
	if !out.Correct {
		return out, nil // no layer numbers from a run that computed something else
	}
	layers["graph.cache_hits"] = float64(ser.CacheHits)
	layers["graph.cache_misses"] = float64(ser.CacheMisses)
	layers["trace.overhead_s"] = tr.Wall - ser.Wall
	moves := map[string]string{}
	for _, m := range perLayer() {
		out.Metrics[m.name] = metricValue{layers[m.name], m.unit}
		moves[m.name] = m.moves
	}
	rec["per_layer_moves"] = moves
	return out, nil
}
