package perf

// Record diffing: the comparison half of the BENCH.json trajectory.
// CI (and anyone bisecting a slowdown) runs `byzcount bench -diff
// old.json new.json` to compare two records workload-by-workload; the
// command exits non-zero when any common workload slowed past the
// tolerance, which turns the committed snapshot into an enforced
// floor instead of a decoration.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// DiffEntry compares one workload present in both records.
type DiffEntry struct {
	Name         string
	OldNs, NewNs float64
	// Ratio is NewNs/OldNs: 1.0 unchanged, 2.0 twice as slow.
	Ratio float64
}

// DiffReport is the full comparison of two records.
type DiffReport struct {
	// Common holds one entry per workload in both records, by name.
	Common []DiffEntry
	// Added and Removed are workload names present in only one record.
	Added, Removed []string
	// Tolerance is the relative slowdown allowed before an entry
	// counts as a regression (0.5 = up to 1.5x the old ns/op).
	Tolerance float64
	// Overrides maps workload names to per-workload tolerances that
	// replace Tolerance where they match. A key ending in '*' is a
	// prefix pattern ("engine/vt-*"); exact keys win over patterns, and
	// among patterns the longest prefix wins. This is how CI holds
	// noisy sub-microsecond workloads to a loose gate while pinning the
	// stable hot paths tight.
	Overrides map[string]float64
}

// ToleranceFor resolves the tolerance applied to one workload name.
func (r *DiffReport) ToleranceFor(name string) float64 {
	if tol, ok := r.Overrides[name]; ok {
		return tol
	}
	best, bestLen := r.Tolerance, -1
	for pat, tol := range r.Overrides {
		if !strings.HasSuffix(pat, "*") {
			continue
		}
		prefix := pat[:len(pat)-1]
		if strings.HasPrefix(name, prefix) && len(prefix) > bestLen {
			best, bestLen = tol, len(prefix)
		}
	}
	return best
}

// DiffRecordsOverrides compares two records. Workloads are matched by
// name; tolerance is the allowed relative slowdown on ns/op, and
// overrides set per-workload tolerances (see DiffReport.Overrides for
// matching rules).
func DiffRecordsOverrides(old, cur *Record, tolerance float64, overrides map[string]float64) *DiffReport {
	rep := &DiffReport{Tolerance: tolerance, Overrides: overrides}
	oldByName := make(map[string]*Result, len(old.Results))
	for i := range old.Results {
		oldByName[old.Results[i].Name] = &old.Results[i]
	}
	seen := make(map[string]bool, len(cur.Results))
	for i := range cur.Results {
		res := &cur.Results[i]
		seen[res.Name] = true
		prev, ok := oldByName[res.Name]
		if !ok {
			rep.Added = append(rep.Added, res.Name)
			continue
		}
		e := DiffEntry{Name: res.Name, OldNs: prev.NsPerOp, NewNs: res.NsPerOp}
		if prev.NsPerOp > 0 {
			e.Ratio = res.NsPerOp / prev.NsPerOp
		}
		rep.Common = append(rep.Common, e)
	}
	for name := range oldByName {
		if !seen[name] {
			rep.Removed = append(rep.Removed, name)
		}
	}
	sort.Slice(rep.Common, func(i, j int) bool { return rep.Common[i].Name < rep.Common[j].Name })
	sort.Strings(rep.Added)
	sort.Strings(rep.Removed)
	return rep
}

// Regressed reports whether the entry slowed past the tolerance.
func (e DiffEntry) Regressed(tolerance float64) bool {
	return e.Ratio > 1+tolerance
}

// Regressions returns the common entries that slowed past their
// (possibly overridden) tolerance, worst first.
func (r *DiffReport) Regressions() []DiffEntry {
	var out []DiffEntry
	for _, e := range r.Common {
		if e.Regressed(r.ToleranceFor(e.Name)) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}

// Render formats the report as the bench -diff table: one line per
// common workload (regressions flagged), then the added/removed names.
func (r *DiffReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-44s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, e := range r.Common {
		flag := ""
		tol := r.ToleranceFor(e.Name)
		if e.Regressed(tol) {
			flag = "  REGRESSED"
		}
		if tol != r.Tolerance {
			flag += fmt.Sprintf("  (tol %.2g)", tol)
		}
		fmt.Fprintf(&sb, "%-44s %14.0f %14.0f %7.2fx%s\n", e.Name, e.OldNs, e.NewNs, e.Ratio, flag)
	}
	for _, name := range r.Added {
		fmt.Fprintf(&sb, "%-44s %s\n", name, "(added)")
	}
	for _, name := range r.Removed {
		fmt.Fprintf(&sb, "%-44s %s\n", name, "(removed)")
	}
	return sb.String()
}

// DiffOverrides reads two BENCH.json files and compares them with
// DiffRecordsOverrides; the wrapper the CLI calls.
func DiffOverrides(oldPath, newPath string, tolerance float64, overrides map[string]float64) (*DiffReport, error) {
	old, err := ReadFile(oldPath)
	if err != nil {
		return nil, err
	}
	cur, err := ReadFile(newPath)
	if err != nil {
		return nil, err
	}
	return DiffRecordsOverrides(old, cur, tolerance, overrides), nil
}

// ParseOverride parses one "name=tol" or "prefix*=tol" spec (the CLI's
// repeatable -tolerance-override flag) into the overrides map. The
// tolerance must be a plain finite number >= 0 with nothing after it;
// anything else is a *toleranceError.
func ParseOverride(overrides map[string]float64, spec string) error {
	name, val, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return fmt.Errorf("perf: bad tolerance override %q (want name=tol or prefix*=tol)", spec)
	}
	tol, err := strconv.ParseFloat(val, 64)
	if err != nil || !(tol >= 0) || math.IsInf(tol, 1) {
		return &toleranceError{spec: spec}
	}
	overrides[name] = tol
	return nil
}

// toleranceError rejects an override tolerance that is not a finite
// number >= 0. NaN would compare false against every ratio and so
// disable the gate, and a negative tolerance fails an unchanged record.
type toleranceError struct {
	spec string
}

func (e *toleranceError) Error() string {
	return fmt.Sprintf("perf: bad tolerance in override %q (want a finite number >= 0)", e.spec)
}
