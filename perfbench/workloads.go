package main

// The three workloads, run untraced through the program's public entry
// points: expt.Run (tables), expt.RunMatrixSweep + ResumeMatrixSweep
// (sweep) and expt.RunScenario (scale). Each run checks its own outputs
// and returns a digest the parent compares across repetitions, against
// the serial and traced runs, and at seed 42 against golden.json.

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"byzcount/internal/counting"
	"byzcount/internal/expt"
	"byzcount/internal/sim"
	"byzcount/internal/sweep"
	"byzcount/internal/xrand"
)

const (
	// tablesTrials is the CLI's default -trials.
	tablesTrials = 3
	// sweepTrials sizes the sweep so one fresh run takes a few seconds on
	// two cores: 16 grid cells x 2 trials.
	sweepTrials = 2
	// scaleN is the scale cell's network size: a 400x400 implicit torus.
	scaleN = 160_000
	// goldenSeed is the seed golden.json pins (the golden tests' seed).
	goldenSeed = 42
)

// sweepMatrix is the fixed CONGEST grid of the sweep workload:
// -adversary spam -byz-frac 0,0.05 -churn 0,2 -delay unit,uniform:1-4
// -n 256,1024 -stop-frac 1 with the CLI defaults max-phase 8 and
// churn-stop 150.
func sweepMatrix() expt.Matrix {
	return expt.Matrix{
		Adversaries: []string{"spam"},
		ByzFracs:    []float64{0, 0.05},
		Churns: []expt.ChurnProfile{{},
			{Leaves: 2, Joins: 2, StopAfter: 150, Mixed: true}},
		Delays:   []string{"unit", "uniform:1-4"},
		Ns:       []int{256, 1024},
		MaxPhase: 8,
		StopFrac: 1,
	}
}

// scaleScenario is the bigmem acceptance shape at scaleN: one benign
// congest cell on the implicit torus, MaxPhase 2.
func scaleScenario() expt.Scenario {
	return expt.Scenario{Proto: "congest", Substrate: "torus-implicit", Adversary: "none",
		Placement: "random", N: scaleN, D: 8, MaxPhase: 2}
}

// workloadParams are recorded in every record line.
var workloadParams = map[string]any{
	"tables": map[string]any{"experiments": expt.IDs(), "quick": true, "trials": tablesTrials},
	"sweep":  map[string]any{"matrix": sweepMatrix(), "trials": sweepTrials},
	"scale":  scaleScenario(),
}

// result is what one child process reports to the parent.
type result struct {
	// Entry is the wall clock (Unix ns) of the first entry-point call;
	// the parent subtracts its own clock at process start from it.
	Entry int64 `json:"entry"`
	// Wall is the time from the first entry-point call to verified
	// output.
	Wall      float64 `json:"wall"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Digest identifies the outputs; Parts names the digest of each
	// operation (experiment ID, scale run) for per-operation checks.
	Digest string            `json:"digest"`
	Parts  map[string]string `json:"parts,omitempty"`
	// Ops is the operations completed and OpsWall the seconds they took
	// (the fresh run alone for sweep); Msgs is the messages the outputs
	// report (table rows on tables, which report none).
	Ops     float64 `json:"ops"`
	OpsWall float64 `json:"ops_wall"`
	Msgs    float64 `json:"msgs"`
	// CacheHits and CacheMisses are expt.SubstrateCacheStats deltas.
	CacheHits   int64              `json:"cache_hits"`
	CacheMisses int64              `json:"cache_misses"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the seed-42 digests: per experiment for tables, the
// table.txt digest for sweep, the outcome digest for scale.
type golden struct {
	Tables map[string]string `json:"tables"`
	Sweep  string            `json:"sweep"`
	Scale  string            `json:"scale"`
}

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

func hashHex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// runTables is `byzcount all -quick`: every experiment in order.
func runTables(seed uint64, par int, g golden) result {
	var res result
	cfg := expt.Config{Seed: seed, Trials: tablesTrials, Quick: true, Parallel: par}
	h0, m0 := expt.SubstrateCacheStats()
	start := time.Now()
	all := sha256.New()
	res.Parts = map[string]string{}
	for _, id := range expt.IDs() {
		res.Attempted++
		t, err := expt.Run(id, cfg)
		if err != nil {
			res.Failed++
			res.fail("%s: %v", id, err)
			continue
		}
		text := t.Render()
		all.Write([]byte(text))
		res.Parts[id] = hashHex([]byte(text))
		res.Msgs += float64(len(t.Rows))
		if seed == goldenSeed && res.Parts[id] != g.Tables[id] {
			res.Failed++
			res.fail("%s: table digest %s differs from golden %s", id, res.Parts[id], g.Tables[id])
		}
	}
	res.Wall = time.Since(start).Seconds()
	res.Digest = hex.EncodeToString(all.Sum(nil))
	res.Ops, res.OpsWall = float64(res.Attempted), res.Wall
	h1, m1 := expt.SubstrateCacheStats()
	res.CacheHits, res.CacheMisses = h1-h0, m1-m0
	return res
}

// runSweep is `byzcount sweep -out DIR` followed by `-resume DIR` on the
// completed directory; the two table.txt files must match.
func runSweep(seed uint64, par int, dir, gitSHA string, g golden) result {
	var res result
	cfg := expt.Config{Seed: seed, Trials: sweepTrials, Parallel: par}
	opts := expt.SweepOptions{GitSHA: gitSHA}
	ctx := context.Background()
	h0, m0 := expt.SubstrateCacheStats()
	start := time.Now()
	sum, err := expt.RunMatrixSweep(ctx, cfg, sweepMatrix(), dir, opts)
	fresh := time.Since(start).Seconds()
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		res.fail("fresh sweep: %v", err)
		return res
	}
	res.Attempted = sum.Total
	res.Failed = len(sum.Quarantined)
	for _, q := range sum.Quarantined {
		res.fail("quarantined %s trial %d: %s", q.Row, q.Trial, q.Err)
	}
	freshTable, err := os.ReadFile(filepath.Join(dir, "table.txt"))
	if err != nil {
		res.Failed = res.Attempted
		res.fail("fresh table: %v", err)
		return res
	}
	resumed, err := expt.ResumeMatrixSweep(ctx, dir, expt.Config{Parallel: par}, opts)
	var resumedTable []byte
	if err == nil {
		resumedTable, err = os.ReadFile(filepath.Join(dir, "table.txt"))
	}
	switch {
	case err != nil:
		res.Failed = res.Attempted
		res.fail("resume: %v", err)
	case string(resumedTable) != string(freshTable):
		res.Failed = res.Attempted
		res.fail("resumed table.txt differs from the fresh one")
	case resumed.Replayed != sum.Total || len(resumed.Quarantined) > 0:
		res.Failed = res.Attempted
		res.fail("resume replayed %d of %d cells with %d quarantined", resumed.Replayed, sum.Total, len(resumed.Quarantined))
	}
	res.Digest = hashHex(freshTable)
	if seed == goldenSeed && res.Digest != g.Sweep {
		res.Failed = res.Attempted
		res.fail("table.txt digest %s differs from golden %s", res.Digest, g.Sweep)
	}
	res.Wall = time.Since(start).Seconds()
	res.Ops, res.OpsWall = float64(sum.Total-len(sum.Quarantined)), fresh
	h1, m1 := expt.SubstrateCacheStats()
	res.CacheHits, res.CacheMisses = h1-h0, m1-m0
	msgs, err := walMessages(dir)
	if err != nil {
		res.fail("reading the cell log: %v", err)
	}
	res.Msgs = msgs
	return res
}

// walMessages sums the msgs value of every logged cell: the exact
// per-cell message counts behind the table's rounded means.
func walMessages(dir string) (float64, error) {
	man, err := sweep.ReadManifest(dir)
	if err != nil {
		return 0, err
	}
	col := -1
	for i, c := range man.Columns {
		if c == "msgs" {
			col = i
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("manifest columns %v have no msgs", man.Columns)
	}
	log, recs, err := sweep.OpenLog(dir)
	if err != nil {
		return 0, err
	}
	log.Close()
	total := 0.0
	for _, r := range recs {
		if v := r.Floats(); col < len(v) {
			total += v[col]
		}
	}
	return total, nil
}

// runScale is one RunScenario cell on the sharded engine.
func runScale(seed uint64, workers int, g golden) result {
	res := result{Attempted: 1}
	start := time.Now()
	out, err := expt.RunScenario(scaleScenario(), xrand.New(seed), expt.RunOptions{Workers: workers})
	if err != nil {
		res.Failed = 1
		res.fail("scale run: %v", err)
		return res
	}
	res.Digest = outcomeDigest(out.Outcomes, out.Honest, out.Rounds, out.Metrics)
	m := out.Metrics
	switch {
	case m.Violations != 0 || m.DelayClamped != 0:
		res.Failed = 1
		res.fail("violations=%d delay_clamped=%d, want 0", m.Violations, m.DelayClamped)
	case m.Messages <= 0 || len(out.Outcomes) != out.Topology.Slots():
		res.Failed = 1
		res.fail("%d messages over %d outcomes for %d slots", m.Messages, len(out.Outcomes), out.Topology.Slots())
	case seed == goldenSeed && res.Digest != g.Scale:
		res.Failed = 1
		res.fail("outcome digest %s differs from golden %s", res.Digest, g.Scale)
	}
	res.Wall = time.Since(start).Seconds()
	res.Ops, res.OpsWall = 1, res.Wall
	res.Msgs = float64(m.Messages)
	return res
}

// outcomeDigest hashes everything a scenario run reports: every node's
// outcome and role, the round count, and the full engine Metrics.
func outcomeDigest(outs []counting.Outcome, honest []bool, rounds int, m sim.Metrics) string {
	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	put(int64(len(outs)), int64(rounds))
	for i, o := range outs {
		put(b2i(o.Decided), int64(o.Estimate), int64(o.Round), b2i(o.Exited), b2i(honest[i]))
	}
	put(int64(m.Rounds), m.Messages, m.Bits, int64(m.MaxMsgBits), m.Violations, m.Capped,
		m.Dropped, m.DelayClamped, m.TicksSkipped, int64(len(m.PerNodeMaxBit)), int64(len(m.MessagesByRound)))
	for _, v := range m.PerNodeMaxBit {
		put(int64(v))
	}
	put(m.MessagesByRound...)
	return hex.EncodeToString(h.Sum(nil))
}
