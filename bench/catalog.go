package main

// metricDef is one catalogue entry. BENCHMARK.json at the repository root
// declares the same entries; catalog_test.go keeps the two equal.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Layer
	// metrics carry none.
	bound float64
}

// endToEndMetrics are what a user of the runtime sees, measured with
// tracing off. A bound is at least three times the widest spread ten seeds
// showed at the seed commit and at most 0.25, the widest the driver accepts
// (README.md, "Steadiness").
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"match_latency_p50_ms", "ms", "lower", 0.25},
	{"match_latency_p90_ms", "ms", "lower", 0.25},
	{"allocs_per_event", "allocs", "lower", 0.10},
	{"state_mb", "MB", "lower", 0.25},
}

// perLayerMetrics are single layers' counts and times; the layer is the
// module name before the dot.
var perLayerMetrics = []metricDef{
	// set-up
	{name: "query.parse_us_per_query", unit: "us", better: "lower"},
	{name: "optimizer.optimize_us_per_query", unit: "us", better: "lower"},
	{name: "core.new_engine_us", unit: "us", better: "lower"},
	{name: "router.add_us_per_query", unit: "us", better: "lower"},
	{name: "router.first_route_ms", unit: "ms", better: "lower"},
	{name: "runtime.register_us_per_query", unit: "us", better: "lower"},
	// ingest side
	{name: "runtime.ingest_ns_per_event", unit: "ns", better: "lower"},
	{name: "runtime.ingest_blocked_share", unit: "share", better: "lower"},
	// router
	{name: "router.route_ns_per_event", unit: "ns", better: "lower"},
	{name: "router.deliveries_per_event", unit: "count/event", better: "lower"},
	{name: "router.residual_evals_per_event", unit: "count/event", better: "lower"},
	{name: "router.range_probes_per_event", unit: "count/event", better: "lower"},
	{name: "runtime.fanout_per_event", unit: "count/event", better: "lower"},
	// engines
	{name: "core.feed_ns_per_delivery", unit: "ns", better: "lower"},
	{name: "core.feed_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.sync_rounds_per_event", unit: "count/event", better: "lower"},
	{name: "core.sync_ns_per_round", unit: "ns", better: "lower"},
	{name: "core.sync_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.horizon_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.engine_rounds_per_kevent", unit: "count/kevent", better: "lower"},
	{name: "core.plan_switches", unit: "count", better: "lower"},
	{name: "core.records_in_per_event", unit: "count/event", better: "lower"},
	{name: "core.records_out_per_event", unit: "count/event", better: "lower"},
	{name: "core.evicted_per_event", unit: "count/event", better: "lower"},
	{name: "core.peak_mem_mb", unit: "MB", better: "lower"},
	{name: "runtime.state_after_capacity_mb", unit: "MB", better: "lower"},
	{name: "stats.observe_ns_per_event", unit: "ns", better: "lower"},
	// shared subplans
	{name: "subplan.feed_ns_per_delivery", unit: "ns", better: "lower"},
	{name: "subplan.feed_ns_per_event", unit: "ns", better: "lower"},
	{name: "subplan.assemble_ns_per_event", unit: "ns", better: "lower"},
	{name: "subplan.assemble_ns_per_round", unit: "ns", better: "lower"},
	{name: "runtime.shared_subplans", unit: "count", better: "higher"},
	{name: "runtime.engine_groups", unit: "count", better: "lower"},
	{name: "runtime.shared_prefix_consumers", unit: "count", better: "higher"},
	// output side
	{name: "runtime.matches_per_kevent", unit: "count/kevent", better: "higher"},
	{name: "runtime.match_latency_p95_ms", unit: "ms", better: "lower"},
	{name: "runtime.match_latency_p99_ms", unit: "ms", better: "lower"},
	{name: "runtime.emit_gap_ns_per_match", unit: "ns", better: "lower"},
	{name: "runtime.close_ms", unit: "ms", better: "lower"},
	{name: "runtime.events_shed", unit: "count", better: "lower"},
	// write-ahead log
	{name: "wal.append_ns_per_event", unit: "ns", better: "lower"},
	{name: "wal.bytes_per_event", unit: "B/event", better: "lower"},
	{name: "wal.appends_per_kevent", unit: "count/kevent", better: "lower"},
	{name: "wal.checkpoints", unit: "count", better: "lower"},
	{name: "wal.segments", unit: "count", better: "lower"},
	{name: "wal.fsyncs", unit: "count", better: "lower"},
	{name: "wal.scan_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "event.encode_ns_per_event", unit: "ns", better: "lower"},
	// what the layers above do not explain
	{name: "runtime.glue_ns_per_event", unit: "ns", better: "lower"},
	// the instrument's own error
	{name: "gen.ns_per_event", unit: "ns", better: "lower"},
	{name: "gen.allocs_per_event", unit: "allocs", better: "lower"},
	{name: "gen.build_s", unit: "s", better: "lower"},
	{name: "gen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}
