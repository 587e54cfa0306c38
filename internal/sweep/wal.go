// Package sweep is the durability layer of the matrix sweep service:
// an append-only, CRC-framed JSONL log of completed (row, trial) cell
// results, and an atomically renamed run manifest pinning the grid
// spec a log belongs to. Together they make an interrupted sweep
// resumable: every trial is a pure function of its sub-seed, so
// replaying the log's completed cells and re-running the rest
// reproduces the uninterrupted run byte for byte.
//
// The log is built to survive exactly the failures a sweep meets in
// practice. Appends are buffered and fsync'd in batches, so a hard
// kill (SIGKILL, OOM, power loss) can lose at most the unsynced tail
// — and a torn final record is tolerated on reopen: the log is
// truncated back to its last whole record and the lost cells simply
// re-run. Corruption anywhere before the tail (a CRC or framing
// mismatch followed by more data) is never silently skipped: reopen
// fails naming the byte offset.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// LogName is the cell log's filename inside a sweep directory.
const LogName = "cells.wal"

// Record is one logged cell result: the (Row, Trial) grid key, the
// trial's derived sub-seed, and either the result values (Vals, as
// IEEE-754 bit patterns so NaN/Inf round-trip exactly) or a
// quarantined failure (Err, with the panic stack when there was one).
type Record struct {
	Row   string   `json:"row"`
	Trial int      `json:"trial"`
	Seed  uint64   `json:"seed"`
	Vals  []uint64 `json:"vals,omitempty"`
	Err   string   `json:"err,omitempty"`
	Stack string   `json:"stack,omitempty"`
	// Attempts is how many executions the cell consumed before the
	// recorded outcome (1 for a first-try success; retries count).
	Attempts int `json:"attempts,omitempty"`
}

// Failed reports whether the record is a quarantined failure.
func (r Record) Failed() bool { return r.Err != "" }

// Floats unpacks Vals into float64s.
func (r Record) Floats() []float64 {
	out := make([]float64, len(r.Vals))
	for i, b := range r.Vals {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// PackFloats converts values to their IEEE-754 bit patterns for Vals.
// JSON cannot carry NaN or Inf as numbers, and a resumed table must
// replay the exact float64 a trial produced; bits round-trip both.
func PackFloats(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// CorruptError reports a framing or checksum failure at a byte offset
// that is not a torn tail — data follows it, so skipping it would
// silently drop completed cells.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("sweep: corrupt log %s at byte offset %d: %s", e.Path, e.Offset, e.Reason)
}

// castagnoli is the CRC-32C table shared by framing and verification.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Each record is one line: an 8-hex-digit payload length, a space, an
// 8-hex-digit CRC-32C of the payload, a space, the JSON payload, and a
// newline. The header is fixed-width so a reader can frame records
// without trusting the payload, and the whole line stays greppable.
const headerLen = 18 // 8 hex + ' ' + 8 hex + ' '

// appendFrame appends the framed encoding of payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = append(dst, fmt.Sprintf("%08x %08x ", len(payload), crc32.Checksum(payload, castagnoli))...)
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// Log is the append half: an open cell log with buffered, batch-synced
// appends. Not safe for concurrent use; the sweep driver serializes
// appends through its collector.
type Log struct {
	f        *os.File
	path     string
	buf      []byte
	unsynced int
	// SyncEvery is the fsync batch size: the log syncs after every
	// SyncEvery buffered appends (and on Sync/Close). Smaller batches
	// bound the work a hard kill can lose; larger ones amortize the
	// fsync. Default 64.
	SyncEvery int
}

// OpenLog opens (creating if absent) the cell log in dir, replays its
// existing records, and positions the log for appending. A torn final
// record — a crash mid-append — is tolerated: the file is truncated
// back to the last whole record. Corruption before the tail fails
// with a *CorruptError naming the offset.
func OpenLog(dir string) (*Log, []Record, error) {
	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	recs, good, err := decodeAll(path, data)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if int64(len(data)) > good {
		// Torn tail: drop it so the next append starts on a record
		// boundary instead of extending garbage.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{f: f, path: path, SyncEvery: 64}, recs, nil
}

// decodeAll parses every whole record in data, returning them plus the
// byte offset of the end of the last whole record. An incomplete
// suffix (truncated header or payload at EOF) is tolerated as a torn
// tail; anything malformed, a checksum mismatch on a complete record,
// or an incomplete suffix holding a newline is a *CorruptError. A torn
// tail never holds one: payloads are newline-free JSON and a frame's
// newline is its last byte, so a newline after the last whole frame
// means a damaged length field claims whole records that follow.
func decodeAll(path string, data []byte) ([]Record, int64, error) {
	var recs []Record
	off := int64(0)
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < headerLen {
			break // torn tail: header cut off by a crash
		}
		plen, errLen := strconv.ParseUint(string(rest[:8]), 16, 32)
		sum, errSum := strconv.ParseUint(string(rest[9:17]), 16, 32)
		if errLen != nil || errSum != nil || rest[8] != ' ' || rest[17] != ' ' {
			return nil, 0, &CorruptError{Path: path, Offset: off, Reason: "malformed frame header"}
		}
		// plen < 2^32, so the sum cannot overflow even where int is 32 bits.
		if uint64(len(rest)) < headerLen+plen+1 {
			break // torn tail: payload cut off by a crash
		}
		end := headerLen + int(plen) + 1
		payload := rest[headerLen : end-1]
		if rest[end-1] != '\n' {
			return nil, 0, &CorruptError{Path: path, Offset: off, Reason: "missing record terminator"}
		}
		if got := crc32.Checksum(payload, castagnoli); got != uint32(sum) {
			return nil, 0, &CorruptError{Path: path, Offset: off,
				Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", sum, got)}
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, 0, &CorruptError{Path: path, Offset: off, Reason: "payload not valid JSON: " + err.Error()}
		}
		recs = append(recs, rec)
		off += int64(end)
	}
	if bytes.IndexByte(data[off:], '\n') >= 0 {
		return nil, 0, &CorruptError{Path: path, Offset: off, Reason: "frame runs past a newline: not a torn tail"}
	}
	return recs, off, nil
}

// Append buffers one record and syncs if the batch is full.
func (l *Log) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if bytes.ContainsRune(payload, '\n') {
		return fmt.Errorf("sweep: record payload contains newline") // cannot happen with json.Marshal
	}
	l.buf = appendFrame(l.buf, payload)
	l.unsynced++
	if l.SyncEvery > 0 && l.unsynced >= l.SyncEvery {
		return l.Sync()
	}
	return nil
}

// Sync flushes buffered records and fsyncs the file, making every
// append so far durable.
func (l *Log) Sync() error {
	if len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			return err
		}
		l.buf = l.buf[:0]
	}
	if l.unsynced == 0 {
		return nil
	}
	l.unsynced = 0
	return l.f.Sync()
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
