package main

// metricDef is one line of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; what "operation" and "score" mean per workload is in
// the README's glossary.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ticks_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"objective_score", "ratio", "higher", 0.15},
	{"throughput_score", "ratio", "higher", 0.25},
	{"fairness_score", "ratio", "higher", 0.10},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// perLayer lists the per-layer metrics of a traced run, layer = module
// name. Counts that a workload does not have read 0; every time is
// measured on every workload.
var perLayer = []metricDef{
	// the workload's own untraced and traced passes
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.op_p99_us", "us", "lower", 0},
	{"bench.op_self_us", "us", "lower", 0},
	{"bench.allocs_per_tick", "count", "lower", 0},
	{"bench.spans_dropped", "count", "lower", 0},
	{"bench.host_speed", "ratio", "higher", 0},
	{"bench.peak_rss_mb", "MB", "lower", 0},
	{"fleet.skipped_ratio", "ratio", "higher", 0},
	{"fleet.max_queue", "count", "lower", 0},
	{"fleet.resident_jobs", "count", "higher", 0},
	{"harness.parallel_efficiency", "ratio", "higher", 0},
	// spans and counters of the traced session at the workload's shape
	{"control.step_self_us", "us", "lower", 0},
	{"control.step_p99_us", "us", "lower", 0},
	{"control.sampled_tick_ratio", "ratio", "higher", 0},
	{"control.idle_tick_ratio", "ratio", "higher", 0},
	{"control.rejected_applies", "count", "lower", 0},
	{"control.bad_samples", "count", "lower", 0},
	{"core.decide_p50_us", "us", "lower", 0},
	{"core.decide_p99_us", "us", "lower", 0},
	{"core.decide_share", "ratio", "lower", 0},
	{"core.exploit_ratio", "ratio", "higher", 0},
	{"core.window_len", "count", "lower", 0},
	{"core.pool_size", "count", "lower", 0},
	{"core.fit_failures", "count", "lower", 0},
	{"core.acq_failures", "count", "lower", 0},
	{"core.budget_coverage", "ratio", "higher", 0},
	{"gp.refits_per_ktick", "count", "lower", 0},
	{"gp.extends_per_ktick", "count", "lower", 0},
	{"gp.target_solves_per_ktick", "count", "higher", 0},
	{"rdt.sample_ns", "ns", "lower", 0},
	{"rdt.apply_ns", "ns", "lower", 0},
	{"rdt.apply_calls_per_tick", "count", "lower", 0},
	{"rdt.share", "ratio", "lower", 0},
	{"cluster.regroups", "count", "lower", 0},
	{"slo.violated_tick_ratio", "ratio", "lower", 0},
	{"slo.goal_switches", "count", "lower", 0},
	// probes: one call of a layer's public function at that shape
	{"control.churn_op_us", "us", "lower", 0},
	{"core.new_us", "us", "lower", 0},
	{"gp.predict_batch_us", "us", "lower", 0},
	{"gp.update_targets_us", "us", "lower", 0},
	{"gp.predict_mean_window_us", "us", "lower", 0},
	{"gp.append_us", "us", "lower", 0},
	{"gp.reset_us", "us", "lower", 0},
	{"linalg.solve_lower_matrix_us", "us", "lower", 0},
	{"linalg.extend_us", "us", "lower", 0},
	{"linalg.factorize_us", "us", "lower", 0},
	{"bo.suggest_batch_us", "us", "lower", 0},
	{"resource.candidate_fill_us", "us", "lower", 0},
	{"sim.step_ns", "ns", "lower", 0},
	{"sim.step_sampled_ns", "ns", "lower", 0},
	{"sim.skip_sampled_ns", "ns", "lower", 0},
	{"sim.measure_isolated_us", "us", "lower", 0},
	{"metrics.score_ns", "ns", "lower", 0},
	{"slo.score_ns", "ns", "lower", 0},
}
