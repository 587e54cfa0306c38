package perf

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

func mkRecord(pairs ...any) *Record {
	r := &Record{Schema: Schema}
	for i := 0; i < len(pairs); i += 2 {
		r.Results = append(r.Results, Result{
			Name:    pairs[i].(string),
			NsPerOp: pairs[i+1].(float64),
		})
	}
	return r
}

func TestDiffRecords(t *testing.T) {
	old := mkRecord("a", 100.0, "b", 200.0, "gone", 50.0)
	cur := mkRecord("a", 110.0, "b", 900.0, "new", 75.0)
	rep := DiffRecordsOverrides(old, cur, 0.5, nil)
	if len(rep.Common) != 2 {
		t.Fatalf("common = %v, want a and b", rep.Common)
	}
	if rep.Common[0].Name != "a" || rep.Common[1].Name != "b" {
		t.Fatalf("common order = %v, want name-sorted", rep.Common)
	}
	if got := rep.Common[0].Ratio; got != 1.1 {
		t.Errorf("a ratio = %v, want 1.1", got)
	}
	if rep.Common[0].Regressed(0.5) {
		t.Errorf("a (1.10x) flagged as regression at tolerance 0.5")
	}
	if !rep.Common[1].Regressed(0.5) {
		t.Errorf("b (4.50x) not flagged as regression at tolerance 0.5")
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Name != "b" {
		t.Errorf("Regressions() = %v, want just b", regs)
	}
	if len(rep.Added) != 1 || rep.Added[0] != "new" {
		t.Errorf("Added = %v, want [new]", rep.Added)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != "gone" {
		t.Errorf("Removed = %v, want [gone]", rep.Removed)
	}
	out := rep.Render()
	if !strings.Contains(out, "REGRESSED") {
		t.Errorf("Render() lacks the REGRESSED flag:\n%s", out)
	}
	if !strings.Contains(out, "(added)") || !strings.Contains(out, "(removed)") {
		t.Errorf("Render() lacks added/removed lines:\n%s", out)
	}
}

func TestDiffRegressionsSortedWorstFirst(t *testing.T) {
	old := mkRecord("a", 100.0, "b", 100.0)
	cur := mkRecord("a", 300.0, "b", 1000.0)
	regs := DiffRecordsOverrides(old, cur, 0.1, nil).Regressions()
	if len(regs) != 2 || regs[0].Name != "b" || regs[1].Name != "a" {
		t.Fatalf("Regressions() = %v, want b (10x) before a (3x)", regs)
	}
}

func TestDiffZeroOldNs(t *testing.T) {
	// A zero old ns/op (corrupt or hand-written record) must not flag
	// or divide by zero.
	rep := DiffRecordsOverrides(mkRecord("a", 0.0), mkRecord("a", 100.0), 0.5, nil)
	if rep.Common[0].Ratio != 0 || rep.Common[0].Regressed(0.5) {
		t.Errorf("zero-old entry = %+v, want ratio 0, not regressed", rep.Common[0])
	}
}

func TestDiffFiles(t *testing.T) {
	dir := t.TempDir()
	old := mkRecord("a", 100.0)
	cur := mkRecord("a", 120.0)
	oldPath := dir + "/old.json"
	newPath := dir + "/new.json"
	if err := old.WriteFile(oldPath); err != nil {
		t.Fatal(err)
	}
	if err := cur.WriteFile(newPath); err != nil {
		t.Fatal(err)
	}
	rep, err := DiffOverrides(oldPath, newPath, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Common) != 1 || rep.Common[0].Ratio != 1.2 {
		t.Fatalf("DiffOverrides() = %+v, want one 1.2x entry", rep.Common)
	}
	if _, err := DiffOverrides(oldPath, dir+"/missing.json", 0.5, nil); err == nil {
		t.Error("DiffOverrides() with a missing file succeeded")
	}
}

func TestDiffOverrides(t *testing.T) {
	old := mkRecord("engine/vt-skip", 100.0, "engine/flood", 100.0, "expt/E1", 100.0)
	cur := mkRecord("engine/vt-skip", 250.0, "engine/flood", 250.0, "expt/E1", 250.0)
	rep := DiffRecordsOverrides(old, cur, 2.0, map[string]float64{
		"engine/vt-skip": 5.0, // exact: loosened, 2.5x passes
		"expt/*":         0.5, // prefix: tightened, 2.5x fails
	})
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Name != "expt/E1" {
		t.Fatalf("Regressions() = %v, want just expt/E1 (tightened by prefix override)", regs)
	}
	if tol := rep.ToleranceFor("engine/flood"); tol != 2.0 {
		t.Errorf("unmatched workload tolerance = %v, want the global 2.0", tol)
	}
	out := rep.Render()
	if !strings.Contains(out, "(tol 5)") {
		t.Errorf("Render() does not show the overridden tolerance:\n%s", out)
	}
}

func TestDiffOverridePrecedence(t *testing.T) {
	rep := &DiffReport{Tolerance: 1.0, Overrides: map[string]float64{
		"engine/*":    2.0,
		"engine/vt-*": 3.0,
		"engine/vt-a": 4.0,
	}}
	for name, want := range map[string]float64{
		"engine/vt-a": 4.0, // exact beats every pattern
		"engine/vt-b": 3.0, // longest prefix wins
		"engine/x":    2.0,
		"graph/x":     1.0, // no match: global
	} {
		if got := rep.ToleranceFor(name); got != want {
			t.Errorf("ToleranceFor(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestParseOverride(t *testing.T) {
	ov := map[string]float64{}
	if err := ParseOverride(ov, "engine/vt-*=3.5"); err != nil || ov["engine/vt-*"] != 3.5 {
		t.Errorf("ParseOverride: %v %v", ov, err)
	}
	for _, bad := range []string{"noequals", "=2", "a=notnum", "a=-1"} {
		if err := ParseOverride(ov, bad); err == nil {
			t.Errorf("ParseOverride(%q) accepted", bad)
		}
	}
	// NaN passes every regression and so disables the gate for its
	// prefix; a trailing tail used to be ignored (9junk read as 9).
	for _, bad := range []string{"engine/*=NaN", "engine/*=9junk", "a=Inf"} {
		var te *toleranceError
		if err := ParseOverride(ov, bad); !errors.As(err, &te) {
			t.Errorf("ParseOverride(%q) = %v, want a *toleranceError", bad, err)
		}
	}
	if len(ov) != 1 {
		t.Errorf("rejected overrides reached the map: %v", ov)
	}
}

func TestScalingSuiteShape(t *testing.T) {
	quick := ScalingSuite(ScalingConfig{Quick: true})
	if want := 2 * len(ScalingSizes(true)) * len(ScalingWorkers); len(quick) != want {
		t.Fatalf("quick suite has %d cells, want %d", len(quick), want)
	}
	for _, n := range ScalingSizes(true) {
		for _, w := range ScalingWorkers {
			for _, name := range []string{ScalingName(n, w), ScalingSparseName(n, w)} {
				found := false
				for _, b := range quick {
					if b.Name == name {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("quick suite missing %s", name)
				}
			}
		}
	}
	full := ScalingSuite(ScalingConfig{})
	if len(full) <= len(quick) {
		t.Errorf("full suite (%d cells) not larger than quick (%d)", len(full), len(quick))
	}
	filtered := ScalingSuite(ScalingConfig{Quick: true, Filter: "workers=8"})
	if want := 2 * len(ScalingSizes(true)); len(filtered) != want {
		t.Errorf("workers=8 filter kept %d cells, want %d", len(filtered), want)
	}
	sparseFiltered := ScalingSuite(ScalingConfig{Quick: true, Filter: "vt-sparse"})
	if want := len(ScalingSizes(true)) * len(ScalingWorkers); len(sparseFiltered) != want {
		t.Errorf("vt-sparse filter kept %d cells, want %d", len(sparseFiltered), want)
	}
}

func TestScalingCellMeasures(t *testing.T) {
	// One tiny cell end-to-end through Measure: the implicit-lattice
	// flood workload must report both rate metrics.
	b := scalingBenchmark(1000, 2, 0)
	b.MinTime = 1
	b.Warmup = 1
	res, err := b.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["msgs_per_sec"] <= 0 || res.Metrics["rounds_per_sec"] <= 0 {
		t.Errorf("scaling cell metrics = %v, want positive rates", res.Metrics)
	}
}

// FuzzParseOverride: ParseOverride never panics, leaves the map alone on
// error, and when it accepts a spec stores exactly one finite tolerance
// >= 0, the number the whole text after the first '=' spells, under the
// text before it. The committed corpus
// (testdata/fuzz) holds the specs that once slipped through, such as
// engine/*=NaN and engine/*=9junk.
func FuzzParseOverride(f *testing.F) {
	for _, spec := range []string{"engine/vt-*=3.5", "expt/*=3.0", "a=0", "noequals", "=2", "a=-1"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ov := map[string]float64{}
		if err := ParseOverride(ov, spec); err != nil {
			if len(ov) != 0 {
				t.Fatalf("ParseOverride(%q) failed (%v) but stored %v", spec, err, ov)
			}
			return
		}
		name, val, _ := strings.Cut(spec, "=")
		tol, ok := ov[name]
		if len(ov) != 1 || !ok {
			t.Fatalf("ParseOverride(%q) stored %v, want one entry under %q", spec, ov, name)
		}
		if !(tol >= 0) || math.IsInf(tol, 1) {
			t.Fatalf("ParseOverride(%q) accepted tolerance %v", spec, tol)
		}
		// The whole text after '=' is the number: no ignored tail.
		if want, err := strconv.ParseFloat(val, 64); err != nil || want != tol {
			t.Fatalf("ParseOverride(%q) stored %v, but %q reads as %v, %v", spec, tol, val, want, err)
		}
	})
}
