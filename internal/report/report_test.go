package report

import (
	"strings"
	"testing"
)

func TestCSVBasic(t *testing.T) {
	got := CSV([]string{"a", "b"}, [][]string{{"1", "2"}, {"x,y", `q"t`}})
	want := "a,b\n1,2\n\"x,y\",\"q\"\"t\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestCSVNewlineQuoting(t *testing.T) {
	got := CSV([]string{"h"}, [][]string{{"line1\nline2"}})
	if !strings.Contains(got, "\"line1\nline2\"") {
		t.Errorf("newline cell not quoted: %q", got)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty sparkline")
	}
	s := []rune(Sparkline([]float64{0, 1, 2, 4}))
	if len(s) != 4 {
		t.Fatalf("length %d", len(s))
	}
	if s[3] != '█' {
		t.Errorf("max should be full block, got %q", s[3])
	}
	if s[0] != '▁' {
		t.Errorf("zero should be lowest block, got %q", s[0])
	}
	// Monotone input -> monotone blocks.
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Errorf("sparkline not monotone: %q", string(s))
		}
	}
}

func TestSparklineAllZero(t *testing.T) {
	s := Sparkline([]float64{0, 0, 0})
	if s != "▁▁▁" {
		t.Errorf("all-zero sparkline = %q", s)
	}
}

func TestDownsample(t *testing.T) {
	in := []float64{1, 1, 3, 3, 5, 5}
	out := Downsample(in, 3)
	if len(out) != 3 || out[0] != 1 || out[1] != 3 || out[2] != 5 {
		t.Errorf("Downsample = %v", out)
	}
	// No-op cases.
	if got := Downsample(in, 10); len(got) != 6 {
		t.Errorf("short input downsampled: %v", got)
	}
	if got := Downsample(in, 0); len(got) != 6 {
		t.Errorf("zero buckets: %v", got)
	}
	// Copies, not aliases.
	same := Downsample(in, 10)
	same[0] = 99
	if in[0] == 99 {
		t.Error("Downsample aliased its input")
	}
}

func TestInts(t *testing.T) {
	got := Ints([]int64{1, 2})
	if len(got) != 2 || got[1] != 2 {
		t.Errorf("Ints = %v", got)
	}
}
