package main

// metricDef declares one reported metric. The two tables below are the
// single source of the metric names, units and directions; a self-test
// checks that BENCHMARK.json declares exactly the same set.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd are the gated metrics, reported by every untraced run on
// every workload: the CPU a deployment pays per point, the CPU one
// set-up costs, and the memory the state holds. Wall-clock throughput
// and latency are measured too (the load.* metrics) but not gated: on
// a shared host their run-to-run spread exceeds any useful bound.
var endToEnd = []metricDef{
	{"cpu_us_per_pt", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, one group per module. A
// metric whose layer a workload does not run reads 0 there (the
// replication layer outside bulk-replicated, the server outside the
// daemon workloads, ranking quality on the unlabeled uniform stream).
var perLayer = []metricDef{
	{"server.overhead_us_per_call", "us", "lower"},
	{"server.allocs_per_call", "count", "lower"},
	{"server.queue_len_max", "count", "lower"},
	{"server.shed", "count", "lower"},
	{"server.deadline_misses", "count", "lower"},
	{"server.checkpoints", "count", "lower"},
	{"server.checkpoint_ms", "ms", "lower"},

	{"replica.gens_shipped", "count", "higher"},
	{"replica.bytes_shipped", "bytes", "lower"},
	{"replica.ship_failures", "count", "lower"},
	{"replica.behind_at_end", "count", "lower"},
	{"replica.standby_accepted", "count", "higher"},
	{"replica.cut_ms", "ms", "lower"},

	{"snapshot.encode_ms", "ms", "lower"},
	{"snapshot.decode_ms", "ms", "lower"},
	{"snapshot.bytes", "bytes", "lower"},

	{"stream.batch_us_per_pt", "us", "lower"},
	{"stream.allocs_per_pt", "count", "lower"},
	{"stream.sweeps", "count", "lower"},
	{"stream.sweep_ms", "ms", "lower"},
	{"stream.sweep_batch_extra_ms", "ms", "lower"},
	{"stream.coalesce_dup_ratio", "ratio", "higher"},
	{"stream.coalesce_distinct_per_group", "count", "lower"},
	{"stream.projected_cells", "count", "lower"},
	{"stream.base_cells", "count", "lower"},
	{"stream.evicted_projected", "count", "lower"},
	{"stream.calibrations", "count", "lower"},
	{"stream.auto_eff_trials", "count", "lower"},
	{"stream.flagged_rate", "ratio", "lower"},
	{"stream.shards1_pts_s", "1/s", "higher"},
	{"stream.shard_speedup", "ratio", "higher"},

	{"core.intervals_ns_pt", "ns", "lower"},
	{"core.bcs_touch_ns_pt", "ns", "lower"},
	{"core.group_ns_key", "ns", "lower"},
	{"core.distinct_frac", "ratio", "lower"},
	{"core.touch_runs_ns_cell", "ns", "lower"},
	{"core.touch_ns_cells_1e4", "ns", "lower"},
	{"core.touch_ns_cells_1e5", "ns", "lower"},
	{"core.touch_ns_cells_1e6", "ns", "lower"},

	{"evt.refit_us", "us", "lower"},

	{"proc.cpu_us_per_pt", "us", "lower"},
	{"proc.gc_cpu_frac", "ratio", "lower"},
	{"proc.gc_pauses", "count", "lower"},

	{"quality.auc", "ratio", "higher"},
	{"quality.precision_at_k", "ratio", "higher"},

	{"load.throughput_pts_s", "1/s", "higher"},
	{"load.latency_p50_ms", "ms", "lower"},
	{"load.latency_p95_ms", "ms", "lower"},
	{"load.latency_p99_ms", "ms", "lower"},
	{"load.latency_samples", "count", "higher"},
	{"load.windows", "count", "higher"},
	{"load.setup_wall_s", "s", "lower"},

	{"trace.untraced_pts_s", "1/s", "higher"},
	{"trace.traced_pts_s", "1/s", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.cpu_overhead_frac", "ratio", "lower"},
	{"trace.spans", "count", "higher"},
}
