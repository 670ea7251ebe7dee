package main

// The benchmark's vocabulary: workloads and metric names, units and
// regression bounds. BENCHMARK.json at the repository root carries the
// same tables for the driver; smoke_test.go requires the two to agree.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
	// run executes the untraced pass (end-to-end metrics) or, with
	// cfg.trace set, the traced pass (per-layer metrics).
	run func(cfg runConfig, tr *tracer) *result
}

// workloads lists the four workloads in the order the README discusses
// them.
var workloads = []workloadDef{
	{"paper_sweep", "the paper's 5-system x 19-lambda grid at N=5: the path every figure takes; protocol handlers, kernel timers and rearm do the work", runPaperSweep},
	{"scale_static", "FRODO 2-party, lambda=0, N=10k then N=20k: the O(N) multicast walk and O(N^2) boot traffic, so netsim and sim do the work", runScaleStatic},
	{"scale_dynamics", "FRODO 2-party, N=5k with churn, flash crowd, partition and rack failures under the oracle: membership writes on the static path's layers", runScaleDynamics},
	{"live_serve", "in-process sdlived with P=1000 participants, closed loop of Update, notification, Query over loopback: gateway, driver queue and UDP push", runLiveServe},
}

// metricDef is one named metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Exact marks a per-layer count or simulated statistic that repeats
	// exactly for a fixed seed; -compare requires two traced runs of one
	// seed to agree on it.
	Exact bool
}

// endToEnd is what a user of the system sees. Every workload emits
// every one of them; what an "op" is per workload is fixed in
// README.md (run / simulated User / HTTP request).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

// exact marks count metrics as repeating exactly for a fixed seed.
func exact(defs []metricDef) []metricDef {
	for i := range defs {
		defs[i].Exact = true
	}
	return defs
}

func concat(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// systemShorts are the experiment.System short labels in paper order.
var systemShorts = []string{"upnp", "jini1", "jini2", "frodo3p", "frodo2p"}

func perSystem(unit, better, prefix string) []metricDef {
	var out []metricDef
	for _, s := range systemShorts {
		out = append(out, metricDef{Name: prefix + s, Unit: unit, Better: better})
	}
	return out
}

// perLayer is the traced pass's vocabulary, <layer>.<name>. A traced
// run prints all of them; one its workload does not measure reads 0
// (README.md lists which workload measures which). For the simulated
// statistics (metrics.*) "better" is nominal: a speed-only change must
// leave them identical.
var perLayer = concat(
	// sim: the event kernel.
	lower("ns", "sim.ns_per_event_d1k", "sim.ns_per_event_d1m"),
	lower("count", "sim.allocs_per_event"),
	exact(lower("count", "sim.events_per_run", "sim.events_per_user_n10k",
		"sim.events_per_user_n20k", "sim.events_per_user_dyn")),
	lower("count", "sim.events_per_op"),
	// netsim: the simulated LAN.
	lower("ns", "netsim.ns_per_unicast", "netsim.ns_per_unicast_ge",
		"netsim.ns_per_delivery_m100", "netsim.ns_per_delivery_m10k"),
	lower("count", "netsim.allocs_per_frame"),
	exact(lower("count", "netsim.deliveries_per_user_n10k", "netsim.deliveries_per_user_n20k",
		"netsim.deliveries_per_cache_write", "netsim.frames_sent")),
	exact(lower("share", "netsim.dropped_share")),
	exact(lower("count", "netsim.partitioned_drops", "netsim.cross_frames_s2")),
	// upnp, jini, frodo: one paper-scale run per system.
	lower("us", "upnp.us_per_run", "jini.us_per_run_1reg", "jini.us_per_run_2reg",
		"frodo.us_per_run_3p", "frodo.us_per_run_2p"),
	lower("count", "upnp.allocs_per_run", "jini.allocs_per_run_1reg", "jini.allocs_per_run_2reg",
		"frodo.allocs_per_run_3p", "frodo.allocs_per_run_2p"),
	// experiment: build, rearm, run, sweep and shard harness.
	lower("us", "experiment.build_us_per_node", "experiment.rearm_us_per_node"),
	lower("s", "experiment.run_s_n10k", "experiment.run_s_n20k"),
	lower("log2", "experiment.scaling_exponent"),
	lower("s", "experiment.cpu_s"),
	higher("ratio", "experiment.sweep_speedup_wmax"),
	lower("count", "experiment.arrival_allocs_per_user"),
	lower("ratio", "experiment.shard_wall_ratio_s2"),
	lower("s", "experiment.shard_busy_s_s2", "experiment.shard_stall_s_s2"),
	// metrics: the simulated statistics, exact for a fixed seed.
	exact(perSystem("count", "lower", "metrics.mprime_")),
	exact(perSystem("share", "higher", "metrics.f_avg_")),
	exact(perSystem("share", "higher", "metrics.r_avg_")),
	exact(perSystem("share", "higher", "metrics.g_avg_")),
	exact(higher("share", "metrics.f_static", "metrics.f_dynamics")),
	exact(lower("hash48", "metrics.sim_fingerprint")),
	// verify: the consistency oracle.
	lower("ratio", "verify.oracle_wall_ratio"),
	lower("ns", "verify.ns_per_frame"),
	lower("count", "verify.violations"),
	higher("count", "verify.probes_run"),
	exact(higher("count", "verify.near_misses")),
	// obs: telemetry and tracing overhead.
	lower("ratio", "obs.telemetry_wall_ratio", "obs.trace_wall_ratio"),
	// live: gateway, driver queue, push.
	lower("us", "live.stats_us_p50", "live.call_us_p50_idle", "live.call_us_p50_loaded",
		"live.call_us_p99_loaded", "live.update_us_p50", "live.update_us_p99",
		"live.update_notify_us_p99", "live.query_us_p50", "live.query_us_p99", "live.notify_push_us_p50"),
	lower("ms", "live.register_ms_p50_first100", "live.register_ms_p50_last100",
		"live.discovery_wait_ms_p50", "live.virtual_lag_ms"),
	lower("count", "live.notify_dropped", "live.notify_misses", "live.inject_errors"),
	// trace: the benchmark's own spans, self time summed per layer.
	lower("s", "trace.self_s_experiment", "trace.self_s_verify", "trace.self_s_live", "trace.self_s_benchmark"),
	higher("count", "trace.spans"),
	lower("ratio", "trace.self_sum_ratio"),
)
