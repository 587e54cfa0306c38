package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecords(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Row:      "congest/hnd/none/n=256",
			Trial:    i,
			Seed:     uint64(i) * 0x9e3779b97f4a7c15,
			Vals:     PackFloats([]float64{float64(i), 1.5 * float64(i), math.NaN()}),
			Attempts: 1,
		}
	}
	return out
}

func writeAll(t *testing.T, dir string, recs []Record) {
	t.Helper()
	l, prior, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh log replayed %d records", len(prior))
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testRecords(17)
	writeAll(t, dir, want)
	l, got, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(got[i])
		b, _ := json.Marshal(want[i])
		if string(a) != string(b) {
			t.Errorf("record %d: got %s want %s", i, a, b)
		}
	}
	// NaN must round-trip through the bit packing.
	if !math.IsNaN(got[3].Floats()[2]) {
		t.Errorf("NaN did not survive the round trip: %v", got[3].Floats())
	}
}

func TestWALAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, testRecords(5))
	l, got, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d, want 5", len(got))
	}
	if err := l.Append(Record{Row: "x", Trial: 99, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err = OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[5].Trial != 99 {
		t.Fatalf("append after reopen lost: %d records, last %+v", len(got), got[len(got)-1])
	}
}

// TestWALTruncatedTailTolerated chops the file mid-record at several
// depths — inside the final payload, inside the final header — and
// expects reopen to replay every whole record, truncate the torn
// tail, and support further appends.
func TestWALTruncatedTailTolerated(t *testing.T) {
	for _, chop := range []int{1, 5, headerLen - 3, headerLen + 4} {
		dir := t.TempDir()
		writeAll(t, dir, testRecords(9))
		path := filepath.Join(dir, LogName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Find the start of the last record and cut `chop` bytes into it.
		lastStart := strings.LastIndex(string(data[:len(data)-1]), "\n") + 1
		if err := os.WriteFile(path, data[:lastStart+chop], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := OpenLog(dir)
		if err != nil {
			t.Fatalf("chop=%d: reopen failed: %v", chop, err)
		}
		if len(got) != 8 {
			t.Fatalf("chop=%d: replayed %d records, want 8", chop, len(got))
		}
		if err := l.Append(Record{Row: "y", Trial: 8, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, got, err = OpenLog(dir)
		if err != nil {
			t.Fatalf("chop=%d: reopen after repair failed: %v", chop, err)
		}
		if len(got) != 9 || got[8].Row != "y" {
			t.Fatalf("chop=%d: repaired log has %d records, last %+v", chop, len(got), got[len(got)-1])
		}
	}
}

// TestWALMidFileCorruptionRejected flips a payload byte in a record
// that is NOT the tail and expects a CorruptError naming the offset of
// the damaged record.
func TestWALMidFileCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, testRecords(9))
	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage a byte inside the third record's payload.
	lines := strings.SplitAfter(string(data), "\n")
	wantOff := int64(len(lines[0]) + len(lines[1]))
	corrupt := []byte(strings.Join(lines, ""))
	corrupt[wantOff+int64(headerLen)+2] ^= 0x40
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenLog(dir)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-file corruption not rejected: err=%v", err)
	}
	if ce.Offset != wantOff {
		t.Errorf("corruption offset %d, want %d", ce.Offset, wantOff)
	}
	if !strings.Contains(ce.Error(), "checksum mismatch") {
		t.Errorf("error does not name the checksum: %v", ce)
	}
}

// TestWALHeaderCorruptionRejected damages a frame header: a non-hex
// length digit mid-file, a length running past the end of the file
// over whole records, and a length past 2^31 (which a 32-bit int would
// read as negative). Each must be a *CorruptError at the damaged
// frame's offset, with the file left as it was.
func TestWALHeaderCorruptionRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs int
		// damage returns the log's damaged content, given its lines, and
		// the damaged frame's offset.
		damage func(lines []string) (string, int)
	}{
		{"non-hex-length", 4, func(lines []string) (string, int) {
			b := []byte(strings.Join(lines, ""))
			b[len(lines[0])] = 'z'
			return string(b), len(lines[0])
		}},
		{"length-past-eof", 3, func(lines []string) (string, int) {
			lines[1] = "7fffffff" + lines[1][8:]
			return strings.Join(lines, ""), len(lines[0])
		}},
		{"length-past-int32", 0, func([]string) (string, int) {
			return "ffffffff 00000000 {}\n", 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, LogName)
			var data []byte
			if tc.recs > 0 {
				writeAll(t, dir, testRecords(tc.recs))
				data, _ = os.ReadFile(path)
			}
			content, off := tc.damage(strings.SplitAfter(string(data), "\n"))
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := OpenLog(dir)
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Offset != int64(off) {
				t.Fatalf("header corruption not rejected with offset %d: %v", off, err)
			}
			if after, _ := os.ReadFile(path); string(after) != content {
				t.Errorf("the rejected log changed from %d to %d bytes", len(content), len(after))
			}
		})
	}
}

func TestWALSyncBatching(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.SyncEvery = 4
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Row: "r", Trial: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Three appends, batch of four: nothing written yet.
	if fi, err := os.Stat(filepath.Join(dir, LogName)); err != nil || fi.Size() != 0 {
		t.Fatalf("appends flushed before the batch filled: size=%d err=%v", fi.Size(), err)
	}
	if err := l.Append(Record{Row: "r", Trial: 3}); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(filepath.Join(dir, LogName)); fi.Size() == 0 {
		t.Fatal("full batch did not flush")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenLog(dir)
	if err != nil || len(got) != 4 {
		t.Fatalf("replay after batched writes: %d records, err=%v", len(got), err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec, _ := json.Marshal(map[string]any{"Ns": []int{64, 128}})
	m := &Manifest{
		Schema: ManifestSchema, CreatedAt: "2026-08-08T00:00:00Z", GitSHA: "deadbeef",
		Seed: 42, Trials: 3, Cells: 4,
		Columns: []string{"a", "b"}, Spec: spec,
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.Trials != 3 || got.Cells != 4 {
		t.Errorf("manifest did not round-trip: %+v", got)
	}
	// MarshalIndent re-indents the embedded RawMessage; compare compacted.
	var gotSpec bytes.Buffer
	if err := json.Compact(&gotSpec, got.Spec); err != nil || gotSpec.String() != string(spec) {
		t.Errorf("spec did not round-trip: %s err=%v", gotSpec.String(), err)
	}
	// Overwrite is atomic: the temp file must not linger.
	m.Seed = 43
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
	got, _ = ReadManifest(dir)
	if got.Seed != 43 {
		t.Errorf("overwrite lost: seed=%d", got.Seed)
	}
}

func TestManifestSchemaChecked(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"schema":"bogus/v9"}`), 0o644)
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: %v", err)
	}
}

// TestManifestCountsChecked: a manifest recording fewer than one trial
// or cell is corrupt (every written manifest records at least one of
// each), so reading it fails with an error that names the file.
func TestManifestCountsChecked(t *testing.T) {
	for _, body := range []string{
		`{"schema":"byzcount-sweep/v1","trials":0,"cells":3}`,
		`{"schema":"byzcount-sweep/v1","trials":-5,"cells":3}`,
		`{"schema":"byzcount-sweep/v1","trials":1,"cells":0}`,
		`{"schema":"byzcount-sweep/v1","cells":3}`,
	} {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, ManifestName), []byte(body), 0o644)
		if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), filepath.Join(dir, ManifestName)) {
			t.Errorf("%s: got %v, want an error naming the file", body, err)
		}
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"schema":"byzcount-sweep/v1","trials":1,"cells":1}`), 0o644)
	if _, err := ReadManifest(dir); err != nil {
		t.Errorf("one trial of one cell rejected: %v", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := &Checkpoint{UpdatedAt: "now", Completed: 7, Quarantined: 1, Total: 20, Interrupted: true}
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	var got Checkpoint
	if err := json.Unmarshal(data, &got); err != nil || got != *want {
		t.Fatalf("checkpoint round trip: %+v err=%v", got, err)
	}
}
