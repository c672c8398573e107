package main

// The benchmark's contract: the workload names, the end-to-end metrics with
// their regression bounds and the per-layer (diagnostic) metrics. BENCHMARK.json
// at the repository root carries the same lists; bench_test.go pins the two
// against each other so neither can drift alone.

// workloadKind selects the driver a workload runs under.
type workloadKind int

const (
	kindLib     workloadKind = iota // in-process, through core.Session
	kindClosed                      // one awared child, closed loop
	kindOpen                        // one awared child, open loop at fixed rates
	kindCluster                     // awarerouter + 2 awared children, closed loop
)

// workloadSpec is one named workload: the sizes are part of the name on
// purpose, so a number quoted as "step_p50_ms on http_hot_10k" is complete.
type workloadSpec struct {
	Name string
	Why  string
	Kind workloadKind
	// Rows is the census size the workload runs over.
	Rows int
	// Pool is the number of distinct predicates the step scripts draw from.
	Pool int
	// Relational selects the derive → join → group_by session script.
	Relational bool
}

// Open-loop constants of http_open_mixed_300k. The three rates are ≈17/55/80 %
// of the closed-loop capacity of the same op mix measured on the builder's
// 2-CPU host (≈1,800 ops/s with 2 connections, go run ./benchmark -capacity);
// they are frozen here so every later run offers the same load. The lowest,
// where the end-to-end metrics are read, is a sixth of the capacity and not
// the third the issue names: this host runs up to twice slower for minutes at
// a time, a third then becomes two thirds, and the wait for a busy connection
// multiplied every slow minute (p50 spread over interleaved runs: 20 % at 550
// ops/s, 13 % at 250). latencyLimitMs is the p95 limit a rate must meet,
// measured from when each op was due.
var openRates = [3]float64{300, 1000, 1450}

const latencyLimitMs = 50.0

var workloads = []workloadSpec{
	{
		Name: "lib_cold_3m", Kind: kindLib, Rows: 3_000_000, Pool: 4096,
		Why: "in-process sessions over a 3M-row snapshot, every filter compiles: dataset kernels, morsel pool and aggregations do the work; server, client, cluster do none",
	},
	{
		Name: "lib_relational_300k", Kind: kindLib, Rows: 300_000, Pool: 1024, Relational: true,
		Why: "in-process derive_column, join_dataset, group_by sessions over 300k rows: the only workload on the internal/plan path (Optimize, Run, HashJoin, EvalExpr)",
	},
	{
		Name: "http_hot_10k", Kind: kindClosed, Rows: 10_000, Pool: 64,
		Why: "awared child, 10,000 rows (one morsel), closed loop, 1 analyst, 64 Zipf(1.1) predicates fit the SelectionCache: kernels near 0, so server, api JSON, obs, client, loopback dominate",
	},
	{
		Name: "http_open_mixed_300k", Kind: kindOpen, Rows: 300_000, Pool: 16384,
		Why: "awared child, 300k rows, open loop Poisson at 300 ops/s (traced: 300/1000/1450), 2 connections, 16,384 Zipf(1.1) predicates (4x cache cap): queueing counted; cache hits, misses, inserts, evictions",
	},
	{
		Name: "cluster_durable_10k", Kind: kindCluster, Rows: 10_000, Pool: 64,
		Why: "awarerouter in front of 2 journaling awared (GOMAXPROCS=1), the http_hot_10k script, then SIGKILL a node: the only workload through cluster proxying, journal appends and replay",
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may get worse before -compare calls it a
// regression; per-layer metrics carry no bound.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them (library workloads time their reads in-process). failed_share is
// the run's failed/attempted pair and must be 0; late_share and rate_ok_ops_s
// are 0 or a frozen level on a healthy run, so they are reported per-layer
// (gen.*) where a value that does not vary is allowed. The tail is per-layer
// too (bench.step_p95_ms): run to run it moves 1.5 to 1.8 times as much as
// the median on this host, past the widest bound there is, and the issue
// demotes a metric that does not repeat rather than loosening its bound. The
// time-based bounds are the widest the contract allows: on the builder's
// 2-CPU VM the host's own speed drifts by ±10 % and more over minutes (every
// metric of a run moves together, in-process reads included), and a bound must
// sit above the spread.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"step_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_step", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer lists the diagnostic metrics of the traced run, named after the
// module (layer) they measure. *_self_us come from the layer ladder, counts
// from public Stats() in-process or /metrics deltas over HTTP.
var perLayer = []metricSpec{
	{"dataset.where_us", "us", "lower", 0},
	{"dataset.agg_us", "us", "lower", 0},
	{"dataset.where_allocs", "count", "lower", 0},
	{"dataset.rows_scanned_per_step", "count", "lower", 0},
	{"dataset.pool_tasks_per_step", "count", "lower", 0},
	{"dataset.pool_queue_wait_us_per_step", "us", "lower", 0},
	{"dataset.pool_cutoff_share", "ratio", "lower", 0},
	{"dataset.cache_hit_ratio", "ratio", "higher", 0},
	{"dataset.cache_partial_ratio", "ratio", "higher", 0},
	{"dataset.cache_entries", "count", "lower", 0},
	{"dataset.arena_recycled_share", "ratio", "higher", 0},
	{"dataset.join_us", "us", "lower", 0},
	{"dataset.derive_us", "us", "lower", 0},
	{"dataset.groupby_us", "us", "lower", 0},
	{"plan.optimize_us", "us", "lower", 0},
	{"plan.run_us", "us", "lower", 0},
	{"plan.rows_materialized_per_step", "count", "lower", 0},
	{"plan.alloc_kb_per_step", "KB", "lower", 0},
	{"core.apply_self_us", "us", "lower", 0},
	{"core.apply_allocs", "count", "lower", 0},
	{"core.apply_alloc_kb", "KB", "lower", 0},
	{"core.codec_us", "us", "lower", 0},
	{"core.holdout_us", "us", "lower", 0},
	{"core.replay_us_per_step", "us", "lower", 0},
	{"stats.test_us", "us", "lower", 0},
	{"investing.bid_ns", "ns", "lower", 0},
	{"server.handler_self_us", "us", "lower", 0},
	{"server.handler_allocs", "count", "lower", 0},
	{"server.obs_self_us", "us", "lower", 0},
	{"server.step_mean_us", "us", "lower", 0},
	{"server.busy_share", "ratio", "lower", 0},
	{"client.loopback_self_us", "us", "lower", 0},
	{"client.wire_bytes_per_step", "B", "lower", 0},
	{"server.journal_self_us", "us", "lower", 0},
	{"server.journal_bytes_per_step", "B", "lower", 0},
	{"server.restore_us_per_step", "us", "lower", 0},
	{"cluster.router_self_us", "us", "lower", 0},
	{"cluster.retried_total", "count", "lower", 0},
	{"cluster.affinity_violations", "count", "lower", 0},
	{"cluster.failover_ms", "ms", "lower", 0},
	{"cluster.sessions_restored", "count", "higher", 0},
	{"colstore.snapshot_write_ms", "ms", "lower", 0},
	{"colstore.snapshot_load_ms", "ms", "lower", 0},
	{"colstore.bytes_per_row", "B", "lower", 0},
	{"gen.offered_ops_s", "1/s", "higher", 0},
	{"gen.achieved_ops_s", "1/s", "higher", 0},
	{"gen.sched_lag_p99_ms", "ms", "lower", 0},
	{"gen.r2_p95_ms", "ms", "lower", 0},
	{"gen.r3_p95_ms", "ms", "lower", 0},
	{"gen.backlog_end", "count", "lower", 0},
	{"gen.late_share", "ratio", "lower", 0},
	{"gen.rate_ok_ops_s", "1/s", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.step_p95_ms", "ms", "lower", 0},
	{"bench.step_p99_ms", "ms", "lower", 0},
	{"bench.step_max_ms", "ms", "lower", 0},
	{"bench.failed_share", "ratio", "lower", 0},
	{"ladder.kernel_share", "ratio", "lower", 0},
	{"ladder.sum_check_pct", "%", "lower", 0},
}
