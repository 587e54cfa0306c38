package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzOpenLog: for any file content OpenLog does not panic, and either
// rejects the log with a *CorruptError, leaving the file untouched, or
// returns records whose frames exactly tile the prefix it keeps (each
// with a matching checksum and a payload that decodes to its record),
// truncating the file to that prefix and dropping a suffix that holds
// no newline. The committed corpus (testdata/fuzz) holds a valid log,
// torn cuts of it, header junk, and the length fields that once read as
// torn tails (a length past the end of the file over whole records, and
// one past 2^31, which panicked where int is 32 bits).
func FuzzOpenLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, LogName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := OpenLog(dir)
		after, readErr := os.ReadFile(path)
		if readErr != nil {
			t.Fatal(readErr)
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("OpenLog failed without a *CorruptError: %v", err)
			}
			if !bytes.Equal(after, data) {
				t.Fatalf("rejected log changed from %d to %d bytes", len(data), len(after))
			}
			return
		}
		l.Close()
		if !bytes.HasPrefix(data, after) {
			t.Fatalf("kept %d bytes that are not a prefix of the log", len(after))
		}
		if bytes.IndexByte(data[len(after):], '\n') >= 0 {
			t.Fatalf("dropped a %d-byte suffix holding a newline", len(data)-len(after))
		}
		if err := tiles(after, recs); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzReadManifest: for any file content ReadManifest does not panic,
// and either fails with an error naming the file or returns a v1
// manifest with at least one trial and one cell. The committed corpus
// (testdata/fuzz) holds a manifest a sweep wrote, its trials set to 0
// and -5 and its cells to 0, a truncated copy, and a wrong schema.
func FuzzReadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, ManifestName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			if m != nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("error %v (manifest %v): want no manifest and an error naming %s", err, m, path)
			}
			return
		}
		if m.Schema != ManifestSchema || m.Trials < 1 || m.Cells < 1 {
			t.Fatalf("accepted schema %q with %d trials and %d cells", m.Schema, m.Trials, m.Cells)
		}
	})
}

// tiles checks that prefix is exactly one whole frame per record, in
// order: an 8-hex-digit length, a space, an 8-hex-digit CRC-32C of the
// payload, a space, the payload decoding to the record, a newline.
func tiles(prefix []byte, recs []Record) error {
	for i, want := range recs {
		if len(prefix) < headerLen || prefix[8] != ' ' || prefix[17] != ' ' {
			return fmt.Errorf("record %d: no frame header", i)
		}
		plen, errLen := strconv.ParseUint(string(prefix[:8]), 16, 32)
		sum, errSum := strconv.ParseUint(string(prefix[9:17]), 16, 32)
		if errLen != nil || errSum != nil || uint64(len(prefix)) < headerLen+plen+1 {
			return fmt.Errorf("record %d: malformed or cut frame header %q", i, prefix[:headerLen])
		}
		end := headerLen + int(plen)
		payload := prefix[headerLen:end]
		if prefix[end] != '\n' || crc32.Checksum(payload, castagnoli) != uint32(sum) {
			return fmt.Errorf("record %d: bad terminator or checksum", i)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || !reflect.DeepEqual(rec, want) {
			return fmt.Errorf("record %d: payload %q does not decode to %+v", i, payload, want)
		}
		prefix = prefix[end+1:]
	}
	if len(prefix) > 0 {
		return fmt.Errorf("kept %d bytes past the last record's frame", len(prefix))
	}
	return nil
}
