package main

// metricDef describes one reported number. Bounds say by what share of
// the parent's median the metric may worsen before a change counts as a
// regression; exact metrics are counts that must repeat exactly at one
// client and the same seed.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only
	exact  bool    // per-layer counts compared for equality
	// contract metrics are defined on all six workloads and listed in
	// BENCHMARK.json; the others are printed where a workload supports
	// them and null elsewhere.
	contract bool
}

// End-to-end metrics: what a supervisor streaming alarms to the service
// sees, measured with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, contract: true},
	{name: "first_append_ms_p50", unit: "ms", better: "lower", bound: 0.25, contract: true},
	{name: "append_ms_mean", unit: "ms", better: "lower", bound: 0.25, contract: true},
	{name: "alarms_per_s", unit: "1/s", better: "higher", bound: 0.25, contract: true},
	{name: "cpu_s_per_kalarm", unit: "s", better: "lower", bound: 0.25, contract: true},
	{name: "rss_mb_peak", unit: "MB", better: "lower", bound: 0.15, contract: true},
	// Not in BENCHMARK.json, which needs every metric on every workload and
	// steady from seed to seed: the pooled percentiles sit where a
	// stream's latency distribution is sparse (pipeline) or have too few
	// samples (batch, one append per session); the per-session medians
	// have a dozen samples per run on the stream workloads, whose session
	// cost varies sixfold with the seed (telecom); only durable recovers.
	{name: "last_append_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "stream_s_p50", unit: "s", better: "lower", bound: 0.25},
	{name: "append_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "append_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "append_ms_p99", unit: "ms", better: "lower", bound: 0.25},
	{name: "create_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25},
}

// Per-layer metrics, from the traced in-process pass and the children's
// /metrics. They carry no bound: they explain an end-to-end move, they
// do not justify a change by themselves.
var perLayer = []metricDef{
	{name: "http.self_us", unit: "us", better: "lower"},
	{name: "serve.append_self_us", unit: "us", better: "lower"},
	{name: "serve.create_self_us", unit: "us", better: "lower"},
	{name: "serve.resp_bytes_per_append", unit: "bytes", better: "lower"},
	{name: "parser.net_us", unit: "us", better: "lower"},
	{name: "parser.alarms_us", unit: "us", better: "lower"},
	{name: "core.new_us", unit: "us", better: "lower"},
	{name: "core.append_self_us", unit: "us", better: "lower"},
	{name: "diagnosis.append_self_us", unit: "us", better: "lower"},
	{name: "diagnosis.unfolding_nodes", unit: "count", better: "lower", exact: true},
	{name: "diagnosis.diagnoses", unit: "count", better: "lower", exact: true},
	{name: "dqsq.rewrite_us_first", unit: "us", better: "lower"},
	{name: "dqsq.rewrite_us_later", unit: "us", better: "lower"},
	{name: "dqsq.subqueries_per_alarm", unit: "count", better: "lower", exact: true},
	{name: "ddatalog.run_self_us", unit: "us", better: "lower"},
	{name: "ddatalog.handle_facts_us", unit: "us", better: "lower"},
	{name: "ddatalog.handle_install_us", unit: "us", better: "lower"},
	{name: "ddatalog.handle_activate_us", unit: "us", better: "lower"},
	{name: "ddatalog.handle_other_us", unit: "us", better: "lower"},
	{name: "ddatalog.derived_per_alarm", unit: "count", better: "lower", exact: true},
	{name: "ddatalog.replicated_per_alarm", unit: "count", better: "lower", exact: true},
	{name: "ddatalog.rules_installed_per_alarm", unit: "count", better: "lower", exact: true},
	{name: "ddatalog.ns_per_derived", unit: "ns", better: "lower"},
	{name: "dist.round_self_us", unit: "us", better: "lower"},
	{name: "dist.messages_per_alarm", unit: "count", better: "lower", exact: true},
	{name: "dist.bytes_per_alarm", unit: "bytes", better: "lower", exact: true},
	{name: "dist.parallel_gain", unit: "ratio", better: "higher"},
	{name: "rel.tuples", unit: "count", better: "lower", exact: true},
	{name: "rel.insert_ns", unit: "ns", better: "lower"},
	{name: "rel.dedup_ns", unit: "ns", better: "lower"},
	{name: "rel.probe_ns", unit: "ns", better: "lower"},
	{name: "term.externalize_ns", unit: "ns", better: "lower"},
	{name: "term.internalize_ns", unit: "ns", better: "lower"},
	{name: "wire.encode_ns_per_fact", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_fact", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_fact", unit: "bytes", better: "lower", exact: true},
	{name: "wal.append_us_always", unit: "us", better: "lower"},
	{name: "wal.append_us_never", unit: "us", better: "lower"},
	{name: "wal.bytes_per_alarm", unit: "bytes", better: "lower"},
	{name: "wal.fsyncs_per_alarm", unit: "count", better: "lower"},
	{name: "snapshot.save_us", unit: "us", better: "lower"},
	{name: "snapshot.load_us", unit: "us", better: "lower"},
	{name: "snapshot.bytes", unit: "bytes", better: "lower"},
	{name: "snapshot.writes_per_alarm", unit: "count", better: "lower"},
	{name: "pool.dispatch_self_us", unit: "us", better: "lower"},
	{name: "pool.retries_per_kappend", unit: "count", better: "lower"},
	{name: "pool.hedged_per_kappend", unit: "count", better: "lower"},
	{name: "recover.restart_s", unit: "s", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}
