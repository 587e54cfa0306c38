package main

import (
	"errors"
	"flag"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzMatrixFlags: whatever the -n, -byz-frac, -churn, -delay and
// -fault lists of matrix and sweep say, matrixFlags' builder and
// Matrix.Scenarios either fail with an error that names a list flag or
// an axis value, or build cells with n >= 3, a Byzantine fraction in
// [0, 1] and churn >= 0. It builds cells but runs none. The committed
// corpus (testdata/fuzz) holds list elements that once failed without
// naming their flag, such as 1e3 for -n, and edge cases of the number
// syntax.
func FuzzMatrixFlags(f *testing.F) {
	f.Add("256", "0", "0", "", "")
	f.Add("64,128", "0,0.1", "0,2", "unit,uniform:1-4", "drop:0.1,partition:2@3-9")
	f.Fuzz(func(t *testing.T, n, byzFrac, churn, delay, fault string) {
		axes := slices.Concat(splitList(delay), splitList(fault))
		cells := 1
		for _, list := range []string{n, byzFrac, churn, delay, fault} {
			cells *= max(1, len(splitList(list)))
			if cells > 1<<12 {
				t.Skip("grid too large to enumerate")
			}
		}
		fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		build := matrixFlags(fs)
		if err := fs.Parse([]string{"-n=" + n, "-byz-frac=" + byzFrac, "-churn=" + churn, "-delay=" + delay, "-fault=" + fault}); err != nil {
			t.Fatal(err)
		}
		m, _, err := build()
		if err != nil {
			var fe *flagError
			if !errors.As(err, &fe) || !slices.Contains([]string{"n", "byz-frac", "churn"}, fe.flag) {
				t.Fatalf("builder error %q names no list flag", err)
			}
			return
		}
		scs, _, err := m.Scenarios()
		if err != nil {
			if !slices.ContainsFunc(axes, func(v string) bool { return strings.Contains(err.Error(), strconv.Quote(v)) }) {
				t.Fatalf("Scenarios error %q names no axis value of %q", err, axes)
			}
			return
		}
		for _, sc := range scs {
			if sc.N < minNodes || !(sc.ByzFrac >= 0 && sc.ByzFrac <= 1) || sc.Churn.Leaves < 0 || sc.Churn.Joins < 0 {
				t.Fatalf("cell %s: n=%d byz-frac=%v churn=%+v", sc.Label(), sc.N, sc.ByzFrac, sc.Churn)
			}
		}
	})
}
