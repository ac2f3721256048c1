package main

import (
	"runtime"
	"slices"
	"time"

	"quaestor/internal/workload"
)

// The load model shared by every workload. The dataset is the paper's
// Section 6.1 corpus scaled to the sandbox: 4 tables × 5 000 documents,
// two tags per document over a domain of 500 (a tag query returns ≈ 20
// documents), a secondary index on tags.
const (
	numTables      = 4
	docsPerTable   = 5000
	meanResultSize = 10 // per tag slot; two slots per doc → ≈ 20 docs per query

	// refreshInterval is Δ, the SDK's EBF refresh interval ("Bloom
	// filters were refreshed every second").
	refreshInterval = time.Second
	// staleSlack is added to Δ before an answer counts as stale beyond Δ:
	// it covers InvaliDB's asynchronous match → EBF hop and clock reads on
	// both sides of the wire.
	staleSlack = 500 * time.Millisecond

	// A fixed phase is invalid, not slow, beyond these.
	maxLatenessP95   = time.Millisecond
	minCompleteShare = 0.99

	// peakOpsCap bounds the pre-generated closed-loop schedule (ops per
	// second of peak phase); the phase ends early if it is exhausted.
	peakOpsCap = 40000
	// traceOps is how many ops of the schedule the traced replay covers.
	traceOps = 10000
	// fpProbes is the number of never-written keys tested against the
	// fetched EBF for ebf.false_positive_share.
	fpProbes = 10000
)

// Latency limits at p95 (failed or refused ops count against them).
var latencyLimit = map[string]time.Duration{
	"read":  5 * time.Millisecond,
	"query": 15 * time.Millisecond,
	"write": 10 * time.Millisecond,
}

// sessions is W: the number of SDK sessions the load comes from.
func sessions() int { return min(runtime.NumCPU(), 4) }

// workloadSpec is one traffic mix and the server/SDK configuration it
// runs against. Rates are constants, never calibrated per run: the highest
// round ones at which the seed's p95 stays within half the latency limit
// on a 2-core box (≈ 20–25 % of its closed-loop peak).
type workloadSpec struct {
	Name            string
	Why             string
	Mix             workload.Mix
	Zipf            float64
	QueriesPerTable int
	Rate            float64 // fixed-phase offered rate, ops/s
	Durable         bool    // -data-dir … -fsync always, crash + recovery before the peak phase
	MaxQueries      int     // -max-queries (0 = server default)
	Cached          bool    // SDK cache + EBF on, Δ = refreshInterval
}

var workloads = []workloadSpec{
	{
		Name: "origin_read_heavy",
		Why:  "SDK cache+EBF off: every op reaches the origin, so HTTP+JSON, ttl, ActiveList, EBF report and planner/executor do the work; client cache, WAL, InvaliDB do almost none",
		Mix:  workload.ReadHeavy, Zipf: 0.99, QueriesPerTable: 100, Rate: 300,
	},
	{
		Name: "cached_read_heavy",
		Why:  "same mix with SDK cache+EBF on: the paper's headline cell, client/cache/ebf.ClientView do most of the work and the origin sees only misses and revalidations",
		Mix:  workload.ReadHeavy, Zipf: 0.99, QueriesPerTable: 100, Rate: 1500, Cached: true,
	},
	{
		Name: "durable_write_heavy",
		Why:  "60U/10I/30Q on -fsync always: ttl/ebf/store used the write way plus wal group commit, commitlog fan-out, InvaliDB matching; SIGKILL + recovery before the peak phase",
		Mix:  workload.Mix{Update: 0.6, Insert: 0.1, Query: 0.3}, Zipf: 0.99, QueriesPerTable: 100, Rate: 350, Durable: true,
	},
	{
		Name: "query_churn",
		Why:  "70Q/30U tag flips over 1600 distinct queries against -max-queries 1000: activation, admission and eviction, match to purge to EBF growth to SDK revalidation; cached results keep going stale",
		Mix:  workload.Mix{Query: 0.7, Update: 0.3}, Zipf: 0.7, QueriesPerTable: 400, Rate: 200, MaxQueries: 1000, Cached: true,
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

// metricDef declares one reported metric. BENCHMARK.json mirrors this
// table: metrics with a Gate are its end_to_end list, the rest its
// per_layer list.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it a regression: the issue's 10 % for
	// every relative one. AbsBound replaces it for shares that sit at or
	// near zero. Metrics with neither are informational.
	Bound    float64
	AbsBound float64
	// Gate, when set, is the metric's bound in BENCHMARK.json's end_to_end
	// list, the change in the median over ten seeds at which the driver
	// rejects a later PR. The driver takes only metrics every workload
	// reports and that are never zero, asks for a bound of about three
	// times the spread identical code shows over ten seeds, and allows at
	// most 0.25; see README.md for the spreads measured on the seed.
	Gate float64
	// Percentile marks latency percentiles, which obey the
	// ten-samples-beyond rule.
	Percentile float64
	// Traced metrics come from the in-process traced replay (-trace 1).
	Traced bool
	// On lists the workloads that report the metric (nil = all).
	On []string
}

var (
	readWorkloads   = []string{"origin_read_heavy", "cached_read_heavy"}
	cachedWorkloads = []string{"cached_read_heavy", "query_churn"}
	durableOnly     = []string{"durable_write_heavy"}
)

// metricDefs is the whole vocabulary. The `load.`-prefixed metrics with a
// bound are user-visible end-to-end metrics that the driver cannot gate:
// they are undefined or zero on some workload, or (latencies, peak
// throughput) identical code moves them by more than any bound the driver
// allows when the sandbox's host changes pace. -compare still judges them.
var metricDefs = buildMetricDefs()

func buildMetricDefs() []metricDef {
	defs := []metricDef{
		// Gated end-to-end metrics.
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10, Gate: 0.25},
		{Name: "origin_requests_per_op", Unit: "ratio", Better: "lower", Bound: 0.10, Gate: 0.25},
		{Name: "server_cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.10, Gate: 0.25},
		{Name: "server_peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10, Gate: 0.25},

		// End-to-end in meaning, not gated (see above).
		{Name: "load.query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Percentile: 0.50},
		{Name: "load.write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Percentile: 0.50},
		{Name: "load.query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10, Percentile: 0.95},
		{Name: "load.peak_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
		{Name: "load.read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Percentile: 0.50, On: readWorkloads},
		{Name: "load.read_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10, Percentile: 0.95, On: readWorkloads},
		{Name: "load.write_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10, Percentile: 0.95},
		{Name: "load.cache_hit_share", Unit: "ratio", Better: "higher", Bound: 0.10, On: cachedWorkloads},
		{Name: "load.stale_beyond_delta_share", Unit: "ratio", Better: "lower", AbsBound: 0.001, On: cachedWorkloads},
		{Name: "load.failed_share", Unit: "ratio", Better: "lower", AbsBound: 0.001},
		{Name: "load.recovery_s", Unit: "s", Better: "lower", Bound: 0.10, On: durableOnly},

		// Generator: validity of every latency metric; tails are informational.
		{Name: "load.lateness_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "load.completed_share", Unit: "ratio", Better: "higher"},
		{Name: "load.read_p99_ms", Unit: "ms", Better: "lower", Percentile: 0.99, On: readWorkloads},
		{Name: "load.query_p99_ms", Unit: "ms", Better: "lower", Percentile: 0.99},
		{Name: "load.write_p99_ms", Unit: "ms", Better: "lower", Percentile: 0.99},

		// client.Stats() deltas + shadow model.
		{Name: "client.revalidation_share", Unit: "ratio", Better: "lower"},
		{Name: "client.not_modified_share", Unit: "ratio", Better: "higher"},
		{Name: "client.ebf_refreshes", Unit: "count", Better: "lower"},
		{Name: "client.own_write_read_share", Unit: "ratio", Better: "lower"},
		{Name: "client.stale_read_share", Unit: "ratio", Better: "lower"},

		// GET /v1/ebf at the end of the fixed phase.
		{Name: "ebf.snapshot_bytes", Unit: "bytes", Better: "lower"},
		{Name: "ebf.entries", Unit: "count", Better: "lower"},
		{Name: "ebf.false_positive_share", Unit: "ratio", Better: "lower"},

		// /v1/stats and /proc deltas over the fixed phase.
		{Name: "server.origin_reads", Unit: "count", Better: "lower"},
		{Name: "server.origin_queries", Unit: "count", Better: "lower"},
		{Name: "server.origin_writes", Unit: "count", Better: "lower"},
		{Name: "server.revalidations", Unit: "count", Better: "lower"},
		{Name: "server.purges", Unit: "count", Better: "lower"},
		{Name: "server.cpu_ms_per_origin_op", Unit: "ms", Better: "lower"},
		{Name: "ttl.admission_reject_share", Unit: "ratio", Better: "lower"},
		{Name: "ttl.query_activations", Unit: "count", Better: "lower"},
		{Name: "ttl.mean_issued_ttl_s", Unit: "s", Better: "higher"},
		{Name: "invalidb.invalidations", Unit: "count", Better: "lower"},
		{Name: "invalidb.invalidations_per_write", Unit: "ratio", Better: "lower"},
		{Name: "query.plan_probe_share", Unit: "ratio", Better: "higher"},
		{Name: "query.rows_examined_per_returned", Unit: "ratio", Better: "lower"},
		{Name: "wal.fsyncs_per_write", Unit: "ratio", Better: "lower", On: durableOnly},
		{Name: "wal.mean_batch", Unit: "count", Better: "higher", On: durableOnly},
		{Name: "wal.bytes_per_write", Unit: "bytes", Better: "lower", On: durableOnly},
		{Name: "wal.segment_bytes_end", Unit: "bytes", Better: "lower", On: durableOnly},
		{Name: "commitlog.publish_to_deliver_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "commitlog.publish_to_deliver_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "commitlog.max_subscriber_lag", Unit: "count", Better: "lower"},
		{Name: "commitlog.dropped", Unit: "count", Better: "lower"},
	}
	// Traced replay: the self-time ladder per op class, then the part
	// spans measured on standalone instances of each layer.
	for _, layer := range []string{"client", "wire", "http", "server"} {
		for _, op := range opClasses {
			defs = append(defs, metricDef{Name: layer + "." + op + "_self_us", Unit: "us", Better: "lower", Traced: true, On: classWorkloads[op]})
		}
	}
	for _, part := range partSpans {
		defs = append(defs, metricDef{Name: part.Name + "_us", Unit: "us", Better: "lower", Traced: true, On: classWorkloads[part.Class]})
	}
	defs = append(defs, metricDef{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Traced: true})
	return defs
}

var opClasses = []string{"read", "query", "write"}

// classWorkloads lists the workloads that send each op class; only record
// reads are not sent by all of them.
var classWorkloads = map[string][]string{"read": readWorkloads}

// partSpans are the calls into single layers the traced replay times on
// standalone instances fed the schedule's keys in schedule order, with
// the op class that makes the call ("" = more than one).
var partSpans = []struct{ Name, Class string }{
	{"store.get", "read"}, {"store.query_planned", "query"}, {"store.update", "write"}, {"wal.commit_wait", "write"},
	{"query.parse", "query"}, {"query.explain", "query"},
	{"ttl.record_ttl", "read"}, {"ttl.query_ttl", "query"}, {"ttl.observe_write", "write"}, {"ttl.admit", "query"},
	{"ebf.report_read", ""}, {"ebf.report_write", "write"}, {"ebf.snapshot", ""}, {"ebf.client_view_lookup", ""},
	{"invalidb.activate", "query"}, {"invalidb.ingest", "write"}, {"commitlog.publish", "write"}, {"cache.get_hit", "read"},
}

func metricByName(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].Name == name {
			return &metricDefs[i]
		}
	}
	return nil
}

// declaredOn reports whether workload w reports metric d.
func (d *metricDef) declaredOn(w string) bool {
	return d.On == nil || slices.Contains(d.On, w)
}
