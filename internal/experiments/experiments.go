// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each function runs one experiment and returns the
// formatted rows/series the paper reports; cmd/quaestor-bench is a thin
// wrapper around this package, and the package's tests smoke every one.
//
// Absolute numbers differ from the paper (our substrate is a simulator and
// an in-process pipeline, not EC2), but the shapes — who wins, by what
// factor, where the crossovers fall — are the reproduction target. The
// README's Experiments section says how to run them.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"quaestor/internal/metrics"
	"quaestor/internal/server"
	"quaestor/internal/sim"
	"quaestor/internal/ttl"
	"quaestor/internal/workload"
)

// Scale reduces experiment sizes uniformly so the suite stays tractable in
// CI-like environments: 1.0 reproduces the paper's parameters, smaller
// values shrink durations and client counts proportionally.
type Scale float64

// Common scales.
const (
	// FullScale matches the paper's parameters.
	FullScale Scale = 1.0
	// QuickScale is sized for test/benchmark runs.
	QuickScale Scale = 0.1
)

func (s Scale) duration(full time.Duration) time.Duration {
	d := time.Duration(float64(full) * float64(s))
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func (s Scale) count(full int) int {
	n := int(float64(full) * float64(s))
	if n < 1 {
		n = 1
	}
	return n
}

// connectionSteps are the x-axis of Figures 8a–8c.
var connectionSteps = []int{300, 600, 1200, 1800, 2400, 3000}

// modes are the four systems compared in Figure 8a.
var modes = []server.CacheMode{
	server.ModeFull,
	server.ModeClientOnly,
	server.ModeCDNOnly,
	server.ModeUncached,
}

// baseSimConfig returns the read-heavy workload setup of Section 6.1:
// 10 tables × 10,000 documents, 100 queries per table, 99% reads+queries /
// 1% writes, Zipfian access.
func baseSimConfig(mode server.CacheMode, connections int, sc Scale) *sim.Config {
	clients := 10
	conns := connections / clients
	if conns < 1 {
		conns = 1
	}
	return &sim.Config{
		Dataset: &workload.DatasetConfig{
			Tables:          10,
			DocsPerTable:    sc.count(10000),
			QueriesPerTable: 100,
			MeanResultSize:  10,
			Seed:            1,
		},
		Mix:            workload.ReadHeavy,
		ZipfS:          0.7,
		Clients:        clients,
		ConnsPerClient: conns,
		Duration:       sc.duration(60 * time.Second),
		EBFRefresh:     time.Second,
		Mode:           mode,
		DisableEBF:     mode == server.ModeCDNOnly || mode == server.ModeUncached,
		Seed:           7,
		MaxOps:         uint64(sc.count(400000)),
	}
}

// Figure8a reproduces the throughput comparison: ops/s versus connection
// count for Quaestor, EBF-only (client cache), CDN-only and uncached.
func Figure8a(sc Scale) string {
	tbl := metrics.NewTable("connections", "quaestor", "ebf-only", "cdn-only", "uncached", "speedup-vs-uncached")
	for _, conns := range connectionSteps {
		row := []string{fmt.Sprintf("%d", conns)}
		var quaestorTput, uncachedTput float64
		for _, mode := range modes {
			m := sim.Run(baseSimConfig(mode, conns, sc))
			row = append(row, fmt.Sprintf("%.0f", m.Throughput))
			switch mode {
			case server.ModeFull:
				quaestorTput = m.Throughput
			case server.ModeUncached:
				uncachedTput = m.Throughput
			}
		}
		speedup := 0.0
		if uncachedTput > 0 {
			speedup = quaestorTput / uncachedTput
		}
		row = append(row, fmt.Sprintf("%.1fx", speedup))
		tbl.AddRow(row...)
	}
	return section("Figure 8a — throughput (ops/s) vs connections, read-heavy (99% reads+queries, 1% writes)", tbl.String())
}

// Figure8b reproduces mean read latency versus connections.
func Figure8b(sc Scale) string {
	return latencyVsConnections("Figure 8b — mean READ latency (ms) vs connections", false, sc)
}

// Figure8c reproduces mean query latency versus connections.
func Figure8c(sc Scale) string {
	return latencyVsConnections("Figure 8c — mean QUERY latency (ms) vs connections", true, sc)
}

func latencyVsConnections(title string, queries bool, sc Scale) string {
	tbl := metrics.NewTable("connections", "quaestor", "ebf-only", "cdn-only", "uncached")
	for _, conns := range connectionSteps {
		row := []string{fmt.Sprintf("%d", conns)}
		for _, mode := range modes {
			m := sim.Run(baseSimConfig(mode, conns, sc))
			h := m.ReadLatency
			if queries {
				h = m.QueryLatency
			}
			row = append(row, fmt.Sprintf("%.1f", h.Mean()))
		}
		tbl.AddRow(row...)
	}
	return section(title, tbl.String())
}

// queryCountSteps are the x-axis of Figures 8d/8e.
var queryCountSteps = []int{1000, 2000, 4000, 6000, 8000, 10000}

func queryCountConfig(totalQueries int, sc Scale) *sim.Config {
	cfg := baseSimConfig(server.ModeFull, 1200, sc)
	cfg.Dataset.QueriesPerTable = totalQueries / cfg.Dataset.Tables
	return cfg
}

// Figure8d reproduces mean request latency for reads and queries as the
// distinct query count grows.
func Figure8d(sc Scale) string {
	tbl := metrics.NewTable("queries", "query-latency-ms", "read-latency-ms")
	for _, qc := range queryCountSteps {
		m := sim.Run(queryCountConfig(qc, sc))
		tbl.AddRow(fmt.Sprintf("%d", qc),
			fmt.Sprintf("%.1f", m.QueryLatency.Mean()),
			fmt.Sprintf("%.1f", m.ReadLatency.Mean()))
	}
	return section("Figure 8d — mean request latency vs query count (1200 connections)", tbl.String())
}

// Figure8e reproduces client and CDN cache hit rates as the query count
// grows.
func Figure8e(sc Scale) string {
	tbl := metrics.NewTable("queries", "client/queries", "client/reads", "cdn/queries", "cdn/reads")
	for _, qc := range queryCountSteps {
		m := sim.Run(queryCountConfig(qc, sc))
		tbl.AddRow(fmt.Sprintf("%d", qc),
			fmt.Sprintf("%.2f", m.ClientHitRate(true)),
			fmt.Sprintf("%.2f", m.ClientHitRate(false)),
			fmt.Sprintf("%.2f", m.CDNHitRate(true)),
			fmt.Sprintf("%.2f", m.CDNHitRate(false)))
	}
	return section("Figure 8e — cache hit rates vs query count", tbl.String())
}

// Figure8f reproduces the query latency histogram: client hits at ~0 ms,
// CDN hits around the CDN RTT, misses around the full round-trip.
func Figure8f(sc Scale) string {
	m := sim.Run(baseSimConfig(server.ModeFull, 3000, sc))
	bounds := []float64{0.5, 2, 8, 32, 100, 200, 400}
	counts := m.QueryLatency.Buckets(bounds)
	tbl := metrics.NewTable("bucket", "count", "share")
	total := 0
	for _, c := range counts {
		total += c
	}
	labels := []string{"<=0.5ms (client hit)", "<=2ms", "<=8ms (CDN hit)", "<=32ms", "<=100ms", "<=200ms (miss)", "<=400ms", ">400ms"}
	for i, c := range counts {
		share := 0.0
		if total > 0 {
			share = float64(c) / float64(total)
		}
		tbl.AddRow(labels[i], fmt.Sprintf("%d", c), fmt.Sprintf("%.1f%%", 100*share))
	}
	out := tbl.String()
	out += fmt.Sprintf("\nclient hit rate=%.2f cdn hit rate=%.2f miss rate=%.2f\n",
		m.ClientHitRate(true), m.CDNHitRate(true),
		rateOf(m.MissQueries, m.Queries))
	return section("Figure 8f — query latency histogram (3000 connections, read-heavy)", out)
}

func rateOf(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// Figure9 reproduces client query cache hit rates under growing update
// rates for different EBF refresh intervals and query counts.
func Figure9(sc Scale) string {
	type series struct {
		label   string
		queries int
		refresh time.Duration
	}
	seriesList := []series{
		{"100k obj/1k queries/1s", 1000, time.Second},
		{"100k obj/1k queries/10s", 1000, 10 * time.Second},
		{"100k obj/1k queries/100s", 1000, 100 * time.Second},
		{"100k obj/10k queries/1s", 10000, time.Second},
	}
	updateRates := []float64{0.01, 0.05, 0.10, 0.15, 0.20}
	header := []string{"update-rate"}
	for _, s := range seriesList {
		header = append(header, s.label)
	}
	tbl := metrics.NewTable(header...)
	for _, ur := range updateRates {
		row := []string{fmt.Sprintf("%.2f", ur)}
		for _, s := range seriesList {
			cfg := baseSimConfig(server.ModeFull, 1200, sc)
			cfg.Dataset.QueriesPerTable = s.queries / cfg.Dataset.Tables
			cfg.EBFRefresh = s.refresh
			read := (1 - ur) / 2
			cfg.Mix = workload.Mix{Read: read, Query: read, Update: ur}
			m := sim.Run(cfg)
			row = append(row, fmt.Sprintf("%.2f", m.ClientHitRate(true)))
		}
		tbl.AddRow(row...)
	}
	return section("Figure 9 — client query cache hit rate vs update rate (per EBF refresh interval)", tbl.String())
}

// Figure10 reproduces stale read/query rates versus the EBF refresh
// interval for 10 and 100 clients (6 connections each, the browser
// default).
func Figure10(sc Scale) string {
	refreshes := []time.Duration{1 * time.Second, 10 * time.Second, 20 * time.Second, 30 * time.Second, 40 * time.Second, 50 * time.Second}
	tbl := metrics.NewTable("refresh-s", "10cl/queries", "10cl/reads", "100cl/queries", "100cl/reads", "cdn-stale-share")
	for _, rf := range refreshes {
		row := []string{fmt.Sprintf("%.0f", rf.Seconds())}
		var cdnShare float64
		for _, clients := range []int{10, 100} {
			cfg := baseSimConfig(server.ModeFull, clients*6, sc)
			cfg.Clients = clients
			cfg.ConnsPerClient = 6
			cfg.EBFRefresh = rf
			// Browser-like pacing (6 connections with think time) and more
			// writes than the headline workload so staleness is observable,
			// as in the simulation section.
			cfg.ThinkTime = 100 * time.Millisecond
			cfg.Mix = workload.Mix{Read: 0.45, Query: 0.45, Update: 0.10}
			m := sim.Run(cfg)
			row = append(row, fmt.Sprintf("%.3f", m.StaleRate(true)), fmt.Sprintf("%.3f", m.StaleRate(false)))
			if m.Queries+m.Reads > 0 {
				cdnShare = float64(m.StaleCDNServes) / float64(m.Queries+m.Reads)
			}
		}
		row = append(row, fmt.Sprintf("%.4f", cdnShare))
		tbl.AddRow(row...)
	}
	return section("Figure 10 — stale read/query rates vs EBF refresh interval", tbl.String())
}

// Figure11 reproduces the CDF comparison between Quaestor's estimated TTLs
// and the true TTLs (time a result could have been cached until
// invalidation) under a 1% write rate.
func Figure11(sc Scale) string {
	cfg := baseSimConfig(server.ModeFull, 600, sc)
	cfg.Duration = sc.duration(10 * time.Minute)
	cfg.Mix = workload.Mix{Read: 0.495, Query: 0.495, Update: 0.01}
	cfg.MaxOps = uint64(sc.count(2000000))
	m := sim.Run(cfg)
	quantiles := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}
	tbl := metrics.NewTable("quantile", "estimated-ttl-s", "true-ttl-s")
	for _, q := range quantiles {
		tbl.AddRow(fmt.Sprintf("p%.0f", q*100),
			fmt.Sprintf("%.1f", m.EstimatedTTLs.Percentile(q)/1000),
			fmt.Sprintf("%.1f", m.TrueTTLs.Percentile(q)/1000))
	}
	out := tbl.String()
	out += fmt.Sprintf("\nsamples: estimated=%d true=%d\n", m.EstimatedTTLs.Count(), m.TrueTTLs.Count())
	return section("Figure 11 — CDF of estimated vs true TTLs (1% writes)", out)
}

// Table1 reproduces the document-count sweep (Zipf constant 0.99). The 10M
// row is included at FullScale only — it needs several GB of ground-truth
// state, exactly like the paper's biggest configuration.
func Table1(sc Scale) string {
	type step struct {
		docs    int
		queries int
	}
	steps := []step{{10000, 100}, {100000, 1000}, {1000000, 10000}}
	if sc >= FullScale {
		steps = append(steps, step{10000000, 100000})
	}
	tbl := metrics.NewTable("documents", "queries", "query-latency-ms", "read-latency-ms")
	for _, st := range steps {
		cfg := baseSimConfig(server.ModeFull, 1200, sc)
		// One logical corpus: fixed 10 tables, documents split across them.
		cfg.Dataset.DocsPerTable = st.docs / cfg.Dataset.Tables
		cfg.Dataset.QueriesPerTable = st.queries / cfg.Dataset.Tables
		cfg.ZipfS = 0.99
		cfg.Duration = sc.duration(600 * time.Second)
		m := sim.Run(cfg)
		tbl.AddRow(fmt.Sprintf("%d", st.docs), fmt.Sprintf("%d", st.queries),
			fmt.Sprintf("%.1f", m.QueryLatency.Mean()),
			fmt.Sprintf("%.1f", m.ReadLatency.Mean()))
	}
	return section("Table 1 — latency for increasing document counts (Zipf 0.99)", tbl.String())
}

// AblationCoherence compares the EBF-based coherence against the static-TTL
// straw man of Section 3 (no client staleness checks) and against serving
// without client caches: what the EBF buys over plain expiration.
func AblationCoherence(sc Scale) string {
	type variant struct {
		label      string
		disableEBF bool
		mode       server.CacheMode
	}
	variants := []variant{
		{"EBF coherence (Quaestor)", false, server.ModeFull},
		{"static TTLs, no EBF", true, server.ModeFull},
		{"no client cache (CDN only)", true, server.ModeCDNOnly},
	}
	tbl := metrics.NewTable("variant", "query-hit-rate", "stale-query-rate", "query-latency-ms")
	for _, v := range variants {
		cfg := baseSimConfig(v.mode, 1200, sc)
		cfg.DisableEBF = v.disableEBF
		cfg.Mix = workload.Mix{Read: 0.45, Query: 0.45, Update: 0.10}
		m := sim.Run(cfg)
		tbl.AddRow(v.label,
			fmt.Sprintf("%.2f", m.ClientHitRate(true)),
			fmt.Sprintf("%.4f", m.StaleRate(true)),
			fmt.Sprintf("%.1f", m.QueryLatency.Mean()))
	}
	return section("Ablation — cache coherence mechanism (10% writes)", tbl.String())
}

// AblationRepresentation compares query-result materializations end to end
// (Section 4.2 "Representing Query Results"): object-lists pay
// invalidations for every member change but assemble in one round-trip;
// id-lists only invalidate on membership changes but may re-fetch members.
func AblationRepresentation(sc Scale) string {
	policies := []struct {
		label string
		rep   server.RepresentationPolicy
	}{
		{"object-list", server.RepAlwaysObjects},
		{"id-list", server.RepAlwaysIDs},
		{"cost-based", server.RepCostBased},
	}
	tbl := metrics.NewTable("representation", "query-hit-rate", "query-latency-ms", "invalidations", "member-fetches")
	for _, p := range policies {
		cfg := baseSimConfig(server.ModeFull, 1200, sc)
		cfg.Representation = p.rep
		// In-place member churn is where the representations diverge.
		cfg.Mix = workload.Mix{Read: 0.45, Query: 0.45, Update: 0.10}
		m := sim.Run(cfg)
		tbl.AddRow(p.label,
			fmt.Sprintf("%.2f", m.ClientHitRate(true)),
			fmt.Sprintf("%.1f", m.QueryLatency.Mean()),
			fmt.Sprintf("%d", m.EBFStats.Invalidations),
			fmt.Sprintf("%d", m.AssemblyFetches))
	}
	return section("Ablation — id-list vs object-list query representation (10% writes)", tbl.String())
}

// AblationTTL sweeps the estimator's quantile and EWMA α, the two knobs of
// Section 4.2: "by varying the quantile, higher/lower TTLs and thus cache
// hit rates can be traded off against more or fewer invalidations". Each
// knob sets TTLs of its own, and the sweep reports their medians. The
// quantile sets the TTLs Equation 1 derives from sampled write rates: the
// records'. A query is usually first served before any of its members'
// writes has been sampled, so its first TTL is the default, not the
// quantile's. α weights Equation 2's EWMA of observed TTLs, which sets a
// query's TTL once the query has been invalidated. These runs cover a few
// virtual seconds, so a record TTL of minutes never runs out inside one:
// the quantile moves the TTLs issued, not the hit rate. The MinTTL clamp
// is lowered so α differentiates the sub-second TTLs of this write
// intensity.
func AblationTTL(sc Scale) string {
	tbl := metrics.NewTable("quantile", "alpha", "record-ttl-s", "revised-query-ttl-s", "query-hit-rate", "invalidations", "stale-query-rate")
	for _, p := range []float64{0.3, 0.7, 0.95} {
		for _, a := range []float64{0.3, 0.8} {
			cfg := baseSimConfig(server.ModeFull, 1200, sc)
			cfg.TTL = &ttl.Config{
				Quantile: p,
				Alpha:    a,
				MinTTL:   50 * time.Millisecond,
				MaxTTL:   10 * time.Minute,
			}
			cfg.Mix = workload.Mix{Read: 0.475, Query: 0.475, Update: 0.05}
			m := sim.Run(cfg)
			tbl.AddRow(fmt.Sprintf("%.2f", p), fmt.Sprintf("%.1f", a),
				fmt.Sprintf("%.2f", m.RecordTTLs.Percentile(0.5)/1000),
				fmt.Sprintf("%.3f", m.RevisedTTLs.Percentile(0.5)/1000),
				fmt.Sprintf("%.2f", m.ClientHitRate(true)),
				fmt.Sprintf("%d", m.EBFStats.Invalidations),
				fmt.Sprintf("%.4f", m.StaleRate(true)))
		}
	}
	return section("Ablation — TTL estimator quantile × EWMA α (5% writes)", tbl.String())
}

func section(title, body string) string {
	var sb strings.Builder
	sb.WriteString("== ")
	sb.WriteString(title)
	sb.WriteString(" ==\n")
	sb.WriteString(body)
	sb.WriteString("\n")
	return sb.String()
}
