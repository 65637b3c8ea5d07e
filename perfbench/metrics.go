package main

// metric declares one reported number. The lists below are the single
// source of the metric names: BENCHMARK.json must list the same names,
// units and directions (TestBenchmarkJSONMatchesMetricTable), and a later
// change that claims a gain names the layer and the end-to-end metric it
// expects to move from here.
type metric struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Workload is the workload whose traced run measures a per-layer
	// metric ("all" for set-up layers). On the other workloads the layer
	// does no work and the metric reads 0.
	Workload string
	// Moves is the end-to-end metric a change to this layer should move
	// on that workload.
	Moves string
}

// endToEndMetrics come from untraced runs (--trace 0).
var endToEndMetrics = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms.p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms.tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "mttf_gain_geomean", Unit: "x", Better: "higher", Bound: 0.05},
}

const (
	wTable1   = "table1-cold"
	wResubmit = "serve-resubmit"
	wDelta    = "delta-edits"
	moveP50   = "op_ms.p50, ops_per_s"
)

// table1Rows are the Table-I rows table1-cold solves: every 4x4-fabric
// row that solves in a few seconds (all three usage bands, 4, 8 and 16
// contexts) plus B3 at the experiments' 0.5 scale for larger LP bases.
var table1Rows = []string{"B1", "B4", "B7", "B10", "B13", "B19", "B22", "B3s"}

var simplexPhases = []string{"setup", "pricing", "ftran", "ratio", "update", "refresh"}

// perLayerMetrics come from traced runs (--trace 1).
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metric {
	var ms []metric
	add := func(name, unit, better, workload, moves string) {
		ms = append(ms, metric{Name: name, Unit: unit, Better: better, Workload: workload, Moves: moves})
	}
	for _, l := range []string{"synth", "place", "warmup", "seed_solve"} {
		add("setup."+l+"_ms", "ms", "lower", "all", "setup_s")
	}
	add("core.remap_both_ms", "ms", "lower", wTable1, moveP50)
	add("core.evaluate_ms", "ms", "lower", wTable1, moveP50)
	for _, arm := range []string{"freeze", "rotate"} {
		for _, l := range []string{"wall", "step1", "rotate", "step2", "sta", "unattributed"} {
			add("core."+arm+"."+l+"_ms", "ms", "lower", wTable1, moveP50)
		}
		add("lp."+arm+".total_ms", "ms", "lower", wTable1, moveP50)
		for _, ph := range simplexPhases {
			add("lp."+arm+"."+ph+"_ms", "ms", "lower", wTable1, moveP50)
		}
		add("lp."+arm+".coverage", "ratio", "higher", wTable1, moveP50)
		for _, c := range []string{"simplex_iters", "solves", "degenerate", "refreshes"} {
			add("lp."+arm+"."+c, "count", "lower", wTable1, moveP50)
		}
		for _, c := range []string{"st_probes", "outer_iters", "probe_timeouts"} {
			add("core."+arm+"."+c, "count", "lower", wTable1, moveP50)
		}
	}
	add("lp.binv_bytes_max", "bytes-computed", "lower", wTable1, "ops_per_s")
	for _, row := range table1Rows {
		add("core.remap_ms."+row, "ms", "lower", wTable1, moveP50)
	}
	for _, row := range table1Rows {
		add("lp.simplex_iters."+row, "count", "lower", wTable1, moveP50)
	}
	add("core.freeze_critical_frac", "ratio", "lower", wTable1, moveP50)
	add("core.repeat_mismatch", "count", "lower", wTable1, "mttf_gain_geomean")

	for _, l := range []string{"serve.rtt", "serve.decode", "arch.validate", "canon.canonicalize",
		"serve.submit", "serve.result", "serve.unattributed"} {
		add(l+"_ms", "ms", "lower", wResubmit, moveP50)
	}
	add("serve.semantic_hit_frac", "ratio", "higher", wResubmit, moveP50)
	add("serve.exact_hit_frac", "ratio", "higher", wResubmit, moveP50)
	add("serve.miss_count", "count", "lower", wResubmit, moveP50)
	add("telemetry.events", "1/op", "lower", wResubmit, moveP50)

	for _, l := range []string{"serve.delta_rtt", "serve.queue_wait", "serve.solve", "serve.delta_unattributed", "lp.delta.total"} {
		add(l+"_ms", "ms", "lower", wDelta, moveP50)
	}
	for _, ph := range simplexPhases {
		add("lp.delta."+ph+"_ms", "ms", "lower", wDelta, moveP50)
	}
	add("lp.delta.simplex_iters", "count", "lower", wDelta, moveP50)
	add("core.delta.st_probes", "count", "lower", wDelta, moveP50)
	add("serve.delta_seeded_frac", "ratio", "higher", wDelta, moveP50)
	add("serve.frozen_reused_frac", "ratio", "higher", wDelta, moveP50)
	add("serve.bases_seeded", "count", "higher", wDelta, moveP50)

	add("trace_overhead_frac", "ratio", "lower", "all", "op_ms.p50")
	return ms
}
