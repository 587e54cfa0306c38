package main

// The metric catalog: every metric the benchmark prints, with its unit
// and the end-to-end metric and workload it should move. BENCHMARK.json
// lists the same names and units; the parent refuses to run when the
// two disagree.

import (
	"encoding/json"
	"fmt"
	"os"
)

type metricDef struct {
	name, unit string
	// moves names the end-to-end metric and workload the metric should
	// move, as predicted before any optimisation is measured.
	moves string
}

// endToEnd metrics are measured untraced, as medians over cold child
// processes. cells_per_s and msgs_per_s are printed on every workload:
// cells_per_s counts the workload's operations (experiments on tables,
// grid cells of the fresh run on sweep, runs on scale) per second of
// the time they took; msgs_per_s counts the messages the outputs report
// (sim.Metrics.Messages on scale, the logged cells' msgs on sweep) per
// second of wall_s, and on tables, whose outputs report no message
// total, rendered table rows instead.
var endToEnd = []metricDef{
	{"wall_s", "s", "first entry-point call to verified output"},
	{"setup_s", "s", "child process start to the first entry-point call"},
	{"cpu_s", "s", "child user+sys CPU time"},
	{"peak_rss_mb", "MB", "child max RSS"},
	{"cells_per_s", "1/s", "sweep: grid cells per second of the fresh run"},
	{"msgs_per_s", "1/s", "scale: sim.Metrics.Messages per second of wall_s"},
}

// perLayer metrics come from the serial traced run (graph.cache_* from
// the serial untraced run, which calls the real entry points). A metric
// a workload does not exercise reads 0. Churn cells build their engine
// inside dynamic.NewRunner, so their construction counts in
// dynamic.build_s, not sim.construct_s; sim.self_s includes the stop
// condition and the churn hook, which run inside Run. Step spans include
// their own clock reads; trace.overhead_s is the total cost of tracing.
func perLayer() []metricDef {
	var defs []metricDef
	for i := 1; i <= 20; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("expt.E%d_s", i), "s", "tables wall_s, cpu_s"})
	}
	for i := 1; i <= 20; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("expt.E%d_allocs", i), "count", "tables wall_s, cpu_s"})
	}
	return append(defs, []metricDef{
		{"expt.cells", "count", "sweep cells_per_s (cells the traced run rebuilt)"},
		{"expt.cell_s", "s", "sweep cells_per_s (mean traced time per rebuilt cell)"},
		{"expt.driver_s", "s", "sweep cells_per_s, tables wall_s (traced wall minus the layer spans)"},
		{"graph.build_s", "s", "tables wall_s, sweep cells_per_s; scale: no change"},
		{"graph.builds", "count", "tables wall_s, sweep cells_per_s; scale: no change"},
		{"graph.cache_hits", "count", "tables wall_s, sweep cells_per_s; scale: no change"},
		{"graph.cache_misses", "count", "tables wall_s, sweep cells_per_s; scale: no change"},
		{"dynamic.build_s", "s", "sweep cells_per_s (churn cells)"},
		{"byzantine.place_s", "s", "sweep cells_per_s, tables wall_s; scale: no change"},
		{"byzantine.step_s", "s", "sweep cells_per_s, tables wall_s; scale: no change"},
		{"byzantine.steps", "count", "sweep cells_per_s, tables wall_s; scale: no change"},
		{"counting.step_s", "s", "scale msgs_per_s, sweep cells_per_s, tables wall_s"},
		{"counting.steps", "count", "scale msgs_per_s, sweep cells_per_s, tables wall_s"},
		{"sim.construct_s", "s", "scale msgs_per_s and peak_rss_mb, sweep cells_per_s"},
		{"sim.self_s", "s", "scale msgs_per_s and peak_rss_mb, sweep cells_per_s"},
		{"sim.rounds", "count", "scale msgs_per_s, sweep cells_per_s"},
		{"sim.msgs", "count", "scale msgs_per_s, sweep cells_per_s"},
		{"sim.ns_per_msg", "ns", "scale msgs_per_s, sweep cells_per_s"},
		{"sim.run_allocs", "count", "scale msgs_per_s and peak_rss_mb, sweep cells_per_s"},
		{"sim.run_alloc_mb", "MB", "scale msgs_per_s and peak_rss_mb, sweep cells_per_s"},
		{"sweep.append_s", "s", "sweep wall_s (a few percent at most)"},
		{"sweep.appends", "count", "sweep wall_s"},
		{"sweep.sync_s", "s", "sweep wall_s (a few percent at most)"},
		{"sweep.wal_bytes", "B", "sweep wall_s"},
		{"sweep.replay_s", "s", "sweep wall_s (a few percent at most)"},
		{"stats.aggregate_s", "s", "sweep and tables wall_s (negligible)"},
		{"report.render_s", "s", "sweep and tables wall_s (negligible)"},
		{"trace.overhead_s", "s", "none: traced wall minus untraced serial wall"},
	}...)
}

// checkBenchmarkFile verifies that BENCHMARK.json declares exactly the
// catalog's metrics, in order, with the same units.
func checkBenchmarkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type entry struct{ Name, Unit string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(kind string, got []entry, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d %s metrics, the benchmark prints %d", path, len(got), kind, len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				return fmt.Errorf("%s: %s metric %d is %s [%s], the benchmark prints %s [%s]",
					path, kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", b.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", b.PerLayer, perLayer())
}
