package main

// metric names one figure the benchmark prints. BENCHMARK.json lists the
// same names, units and directions; the self-test keeps the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the allocator sees, reported for every
// workload. Bound is the share of the parent's median by which a later
// change may worsen the metric. Each is at least three times the widest
// spread across ten seeds that CALIBRATION.md records on a quiet host and
// above the widest recorded through a slow phase of the host. The quality
// figures cannot have the tight bounds one fixed instance would allow,
// because the driver's seeds draw different days: cost_per_slot moves up
// to 2.4% between seeds on its own (rome_exact).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"slot_p50_ms", "ms", "lower", 0.20},
	{"slot_tail_ms", "ms", "lower", 0.25},
	{"slots_per_s", "1/s", "higher", 0.20},
	{"in_slo_frac", "frac", "higher", 0.02},
	{"cost_per_slot", "cost", "lower", 0.08},
	{"certified_ratio", "ratio", "lower", 0.06},
	{"cpu_ms_per_slot", "ms", "lower", 0.20},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer is the traced run's output. A layer that is not in a
// workload's path reports zero there.
var perLayer = []metric{
	// core: from StepDiag and the wall time of Step, timed slots only.
	{Name: "core.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.solve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.cold_slot_ms", Unit: "ms", Better: "lower"},
	{Name: "core.outer_per_slot", Unit: "count", Better: "lower"},
	{Name: "core.inner_per_slot", Unit: "count", Better: "lower"},
	{Name: "core.us_per_inner", Unit: "us", Better: "lower"},
	{Name: "core.nonconverged_frac", Unit: "frac", Better: "lower"},
	{Name: "core.logcache_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "core.export_state_ms", Unit: "ms", Better: "lower"},
	{Name: "core.restore_state_ms", Unit: "ms", Better: "lower"},
	{Name: "core.certificate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cand_rounds_per_slot", Unit: "count", Better: "lower"},
	{Name: "core.cand_expanded_per_slot", Unit: "count", Better: "lower"},
	{Name: "core.cand_nnz_frac", Unit: "frac", Better: "lower"},
	{Name: "core.frozen_frac", Unit: "frac", Better: "higher"},
	{Name: "core.readmitted_per_slot", Unit: "count", Better: "lower"},
	{Name: "shard.iters_per_slot", Unit: "count", Better: "lower"},
	{Name: "shard.residual_max", Unit: "frac", Better: "lower"},
	{Name: "shard.slowest_block_frac", Unit: "frac", Better: "lower"},
	// Probes on episode 0.
	{Name: "numkernel.logbatch_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "numkernel.stdlib_log_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "shardrpc.calls_per_slot", Unit: "count", Better: "lower"},
	{Name: "shardrpc.req_kb_per_slot", Unit: "kB", Better: "lower"},
	{Name: "shardrpc.resp_kb_per_slot", Unit: "kB", Better: "lower"},
	{Name: "shardrpc.server_ms_per_slot", Unit: "ms", Better: "lower"},
	{Name: "shardrpc.overhead_ms_per_slot", Unit: "ms", Better: "lower"},
	{Name: "shardrpc.fallbacks", Unit: "count", Better: "lower"},
	{Name: "shardrpc.bitwise_equal", Unit: "count", Better: "higher"},
	{Name: "route.owner_ns", Unit: "ns", Better: "lower"},
	{Name: "model.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "model.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "model.encode_kb", Unit: "kB", Better: "lower"},
	// The serving path, from outside the HTTP API.
	{Name: "serve.create_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.roundtrip_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.solve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "serve.autosnap_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.snapshot_kb", Unit: "kB", Better: "lower"},
	{Name: "serve.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.req_kb", Unit: "kB", Better: "lower"},
	{Name: "serve.resp_kb", Unit: "kB", Better: "lower"},
	{Name: "serve.status_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.conform_ok", Unit: "count", Better: "higher"},
	{Name: "route.forward_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "telemetry.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.series", Unit: "count", Better: "lower"},
	{Name: "gen.late_ms_max", Unit: "ms", Better: "lower"},
	// The verification the harness runs after the timed region.
	{Name: "scenario.build_ms", Unit: "ms", Better: "lower"},
	{Name: "model.evaluate_ms_per_slot", Unit: "ms", Better: "lower"},
	{Name: "conform.check_ms", Unit: "ms", Better: "lower"},
	{Name: "conform.violations", Unit: "count", Better: "lower"},
	{Name: "conform.dual_residual", Unit: "cost", Better: "lower"},
	// The Go runtime over the timed region of the traced pass.
	{Name: "go.alloc_mb_per_slot", Unit: "MB", Better: "lower"},
	{Name: "go.allocs_per_slot", Unit: "count", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	// The host's speed relative to the reference during the traced pass;
	// per-layer times are as measured, multiply by it to compare runs.
	{Name: "host.speed", Unit: "ratio", Better: "higher"},
}
