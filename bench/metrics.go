package main

// def declares one metric: BENCHMARK.json lists exactly these names, units
// and directions (TestBenchmarkJSONMatches holds the two together), and
// README.md explains each.
type def struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd are the numbers a client or operator of muaa-serve sees, taken
// only from untraced runs. The three *_vs_ref metrics are muaa-serve's
// arrivals per second, median latency and CPU per arrival divided by the
// reference server's (reference.go) in the same window: the raw values move
// by a third and more with the shared host's load, their ratios by a few
// percent.
var endToEnd = []def{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_vs_ref", "ratio", "higher", 0.25},
	{"p50_vs_ref", "ratio", "lower", 0.2},
	{"server_cpu_vs_ref", "ratio", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.25},
	{"utility_per_arrival", "utility", "higher", 0.25},
}

// raw are what the ratios are made of. An untraced run prints them for the
// reader and stores them in results.json; nothing is bounded on them.
var raw = []def{
	{"setup_raw_s", "s", "lower", 0},
	{"arrivals_per_s", "1/s", "higher", 0},
	{"p50_us", "us", "lower", 0},
	{"server_cpu_us_per_arrival", "us", "lower", 0},
	{"ref.arrivals_per_s", "1/s", "higher", 0},
	{"ref.p50_us", "us", "lower", 0},
	{"ref.cpu_us_per_arrival", "us", "lower", 0},
}

// perLayer are the diagnostics of the traced run. Every run prints every
// one; a layer a workload does not exercise reports 0.
var perLayer = []def{
	// Ladder: in-process arms, ns per arrival.
	{"geo.covered_by_ns", "ns", "lower", 0},
	{"geo.candidates_per_arrival", "count", "lower", 0},
	{"broker.bare_ns", "ns", "lower", 0},
	{"broker.slate_ns", "ns", "lower", 0},
	{"knapsack.solve_ns", "ns", "lower", 0},
	{"obs.metrics_ns", "ns", "lower", 0},
	{"funnel.ns", "ns", "lower", 0},
	{"audit.capture_ns", "ns", "lower", 0},
	{"trace.arrival_ns", "ns", "lower", 0},
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.fsync_ns", "ns", "lower", 0},
	{"wal.bytes_per_arrival", "B", "lower", 0},
	{"api.json_ns", "ns", "lower", 0},
	{"api.req_bytes_per_arrival", "B", "lower", 0},
	{"api.resp_bytes_per_arrival", "B", "lower", 0},
	{"trace.middleware_ns", "ns", "lower", 0},
	{"serve.nethttp_ns", "ns", "lower", 0},
	{"ladder.sum_ns", "ns", "lower", 0},
	{"ladder.top_ns", "ns", "lower", 0},
	// Server scrape: /metrics and /proc on both sides of the traced window.
	{"broker.stage.lock_wait_us", "us", "lower", 0},
	{"broker.stage.gather_us", "us", "lower", 0},
	{"broker.stage.scan_us", "us", "lower", 0},
	{"broker.stage.commit_us", "us", "lower", 0},
	{"broker.offers_per_arrival", "count", "higher", 0},
	{"broker.gathered_per_arrival", "count", "lower", 0},
	{"broker.stripe_contended_ratio", "ratio", "lower", 0},
	{"broker.batch_size_mean", "count", "higher", 0},
	{"wal.records_per_fsync", "count", "higher", 0},
	{"wal.flush_p99_ms", "ms", "lower", 0},
	{"wal.appends", "count", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"recover.us_per_record", "us", "lower", 0},
	{"recover.records", "count", "higher", 0},
	{"recover.snapshot_boot_ms", "ms", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.heap_mb", "MB", "lower", 0},
	{"runtime.gc_last_pause_us", "us", "lower", 0},
	{"serve.cpu_user_us_per_arrival", "us", "lower", 0},
	{"serve.cpu_sys_us_per_arrival", "us", "lower", 0},
	{"serve.gomaxprocs", "count", "higher", 0},
	// Client spans and the open loop.
	{"serve.p90_us", "us", "lower", 0},
	{"serve.p99_us", "us", "lower", 0},
	{"serve.p99_beyond", "count", "higher", 0},
	{"serve.p999_us", "us", "lower", 0},
	{"serve.p999_beyond", "count", "higher", 0},
	{"loadgen.cpu_us_per_req", "us", "lower", 0},
	{"trace.joined", "count", "higher", 0},
	{"trace.server_arrival_us", "us", "lower", 0},
	{"trace.roundtrip_self_us", "us", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"serve.open.p50_us.r2000", "us", "lower", 0},
	{"serve.open.p99_us.r2000", "us", "lower", 0},
	{"serve.open.p50_us.r4000", "us", "lower", 0},
	{"serve.open.p99_us.r4000", "us", "lower", 0},
	{"serve.open.p50_us.r8000", "us", "lower", 0},
	{"serve.open.p99_us.r8000", "us", "lower", 0},
	{"serve.open.max_rate_ok", "1/s", "higher", 0},
	{"loadgen.open.late_us", "us", "lower", 0},
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append(append([]def(nil), endToEnd...), raw...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()
