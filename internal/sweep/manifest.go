package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestSchema identifies the manifest format; bump on incompatible
// change.
const ManifestSchema = "byzcount-sweep/v1"

// ManifestName is the manifest's filename inside a sweep directory.
const ManifestName = "manifest.json"

// Manifest pins a sweep directory to one exact run: the full grid
// spec, the root seed and trial count that derive every cell's
// sub-seed, the result-column names the logged Vals are ordered by,
// and the code version that produced it. Resume re-enumerates the
// grid from Spec, so a resumed run cannot drift from the original
// request — the manifest, not the resumer's flags, is the source of
// truth.
type Manifest struct {
	Schema    string `json:"schema"`
	CreatedAt string `json:"created_at"`
	GitSHA    string `json:"git_sha"`
	Seed      uint64 `json:"seed"`
	Trials    int    `json:"trials"`
	// Cells is the enumerated grid size, a cheap cross-check that the
	// resuming binary enumerates Spec to the same cells.
	Cells   int      `json:"cells"`
	Columns []string `json:"columns"`
	// Spec is the driver-owned grid spec (the expt.Matrix), opaque to
	// this package so the durability layer needs no knowledge of the
	// scenario vocabulary.
	Spec json.RawMessage `json:"spec"`
}

// WriteManifest writes the manifest atomically: marshal to a temp file
// in dir, fsync it, rename over the final name, fsync the directory.
// A crash at any point leaves either the old manifest or the new one,
// never a torn in-between.
func WriteManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(dir, ManifestName+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadManifest reads and checks dir's manifest: the schema, and a trial
// and cell count of at least 1 each, which every written manifest
// records. Every error names the file.
func ReadManifest(dir string) (*Manifest, error) {
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("sweep: %s: schema %q, want %q", path, m.Schema, ManifestSchema)
	}
	if m.Trials < 1 || m.Cells < 1 {
		return nil, fmt.Errorf("sweep: %s: %d trials and %d cells, want at least 1 of each", path, m.Trials, m.Cells)
	}
	return &m, nil
}

// Checkpoint is the human-facing progress file a sweep rewrites
// atomically at shutdown (graceful or completed). Resume derives its
// truth from the log, not from this file — it exists so `cat
// checkpoint.json` answers "how far did it get" without parsing the
// WAL.
type Checkpoint struct {
	UpdatedAt   string `json:"updated_at"`
	Completed   int    `json:"completed"`
	Quarantined int    `json:"quarantined"`
	Total       int    `json:"total"`
	Interrupted bool   `json:"interrupted"`
}

// CheckpointName is the checkpoint's filename inside a sweep directory.
const CheckpointName = "checkpoint.json"

// WriteCheckpoint writes the checkpoint atomically (same temp+rename
// protocol as the manifest).
func WriteCheckpoint(dir string, c *Checkpoint) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(dir, CheckpointName+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmpName)
		if werr != nil {
			return werr
		}
		if serr != nil {
			return serr
		}
		return cerr
	}
	if err := os.Rename(tmpName, filepath.Join(dir, CheckpointName)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}
