package main

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"quaestor/internal/bloom"
	"quaestor/internal/commitlog"
	"quaestor/internal/server"
)

var statsClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, v any) error { return getJSONWith(statsClient, url, v) }

func getJSONWith(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// ebfProbe is what one GET /v1/ebf tells about the filter.
type ebfProbe struct {
	wireBytes     int // the response body as the SDK receives it (gzip)
	entries       int
	falsePositive float64 // share of never-written probe keys the filter flags
}

func probeEBF(base string) (ebfProbe, error) {
	var p ebfProbe
	req, err := http.NewRequest(http.MethodGet, base+"/v1/ebf", nil)
	if err != nil {
		return p, err
	}
	// Asking for gzip explicitly stops the transport from inflating the
	// body, so its length is what a refresh costs on the wire.
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := statsClient.Do(req)
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return p, err
	}
	if resp.StatusCode != http.StatusOK {
		return p, fmt.Errorf("GET /v1/ebf: status %d", resp.StatusCode)
	}
	p.wireBytes = len(raw)
	body := io.Reader(bytes.NewReader(raw))
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if body, err = gzip.NewReader(body); err != nil {
			return p, err
		}
	}
	var payload server.EBFResponse
	if err := json.NewDecoder(body).Decode(&payload); err != nil {
		return p, err
	}
	bits, err := base64.StdEncoding.DecodeString(payload.Filter)
	if err != nil {
		return p, err
	}
	filter, err := bloom.Unmarshal(bits)
	if err != nil {
		return p, err
	}
	p.entries = payload.Entries
	flagged := 0
	for i := 0; i < fpProbes; i++ {
		if filter.Contains(fmt.Sprintf("table00/never-written-%06d", i)) {
			flagged++
		}
	}
	p.falsePositive = float64(flagged) / fpProbes
	return p, nil
}

// histogramDelta subtracts two publish→deliver histograms bucket by
// bucket (keyed by upper bound; 0 is the open-ended bucket).
func histogramDelta(before, after commitlog.LatencySummary) (bounds []int64, counts []uint64) {
	prev := map[int64]uint64{}
	for _, b := range before.Buckets {
		prev[b.LeMicros] = b.Count
	}
	for _, b := range after.Buckets {
		if c := b.Count - prev[b.LeMicros]; c > 0 {
			bounds = append(bounds, b.LeMicros)
			counts = append(counts, c)
		}
	}
	return bounds, counts
}

// histogramPercentile returns the upper bound (ms) of the bucket holding
// the p-quantile. The open-ended bucket reports twice the last bound.
func histogramPercentile(bounds []int64, counts []uint64, p float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total)*p + 0.5)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			le := bounds[i]
			if le == 0 && i > 0 {
				le = 2 * bounds[i-1]
			}
			return float64(le) / 1000
		}
	}
	return float64(bounds[len(bounds)-1]) / 1000
}

// inWindows cuts samples into phaseWindows equal windows of
// [from, from+length) by their time; samples past the end (a completion
// just after the peak phase's deadline) count in the last window.
func inWindows(samples []timedSample, from, length time.Duration) [][]float64 {
	out := make([][]float64, phaseWindows)
	for _, s := range samples {
		w := int((s.at - from) * phaseWindows / length)
		w = max(0, min(w, phaseWindows-1))
		out[w] = append(out[w], s.ms)
	}
	return out
}

// setLatency records the declared percentile of a class's fixed-phase
// latencies. A metric with a bound is the median over the windows of each
// window's percentile when every window has ten samples beyond it. The
// informational tails, and a class too rare for windows, are the
// percentile of the whole phase, withheld when even that has too few
// samples. An op class the workload does not send records nothing.
func (r *runResult) setLatency(name string, samples []timedSample, tr *timedRun) {
	if len(samples) == 0 {
		return
	}
	d := metricByName(name)
	if d == nil || d.Percentile == 0 {
		panic("benchmark: " + name + " is not a declared percentile metric") // a bug in spec.go
	}
	var perWindow []float64
	smallest := len(samples)
	windows := inWindows(samples, tr.warm, tr.fixed)
	if d.Bound == 0 {
		windows = nil
	}
	for _, w := range windows {
		v, ok := percentile(sortedCopy(w), d.Percentile)
		if !ok {
			perWindow = nil
			break
		}
		perWindow = append(perWindow, v)
		smallest = min(smallest, len(w))
	}
	if perWindow != nil {
		r.Metrics[name] = metricValue{Value: median(perWindow), Unit: d.Unit, Samples: smallest, PerWindow: perWindow}
		return
	}
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = s.ms
	}
	v, ok := percentile(sortedCopy(all), d.Percentile)
	if !ok {
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit, Samples: len(all), Insufficient: !ok}
}

// fillTimedMetrics turns what the process-level phases measured into
// metrics.
func fillTimedMetrics(res *runResult, tr *timedRun) {
	d := func(a, b uint64) float64 { return float64(b - a) }
	fixed, peak, before, after, probe := tr.fixedRec, tr.peakRec, &tr.before, &tr.after, tr.probe
	b, a := &before.srv, &after.srv

	// Gated end to end. CPU per op is taken over the whole phase: a stall
	// of the sandbox is not charged as CPU time, and /proc's 10 ms ticks
	// make short windows coarse.
	cpuMs := ms(after.cpu - before.cpu)
	res.set("origin_requests_per_op", ratio(d(before.sent, after.sent), float64(fixed.attempted)))
	res.set("server_cpu_ms_per_op", ratio(cpuMs, float64(fixed.attempted-fixed.failed)))
	res.set("server_peak_rss_mb", tr.rssMiB)

	// End to end in meaning.
	read, query, write := fixed.latency["read"], fixed.latency["query"], fixed.latency["write"]
	res.setLatency("load.query_p50_ms", query, tr)
	res.setLatency("load.write_p50_ms", write, tr)
	res.setLatency("load.query_p95_ms", query, tr)
	var done []timedSample
	for _, samples := range peak.latency {
		done = append(done, samples...)
	}
	var rates []float64
	for _, w := range inWindows(done, tr.peakStart, tr.peak) {
		rates = append(rates, float64(len(w))/(tr.peak.Seconds()/phaseWindows))
	}
	res.set("load.peak_ops_per_s", median(rates))
	def := func(name string) bool { return metricByName(name).declaredOn(res.Workload) }
	if def("load.read_p50_ms") {
		res.setLatency("load.read_p50_ms", read, tr)
		res.setLatency("load.read_p95_ms", read, tr)
		res.setLatency("load.read_p99_ms", read, tr)
	}
	res.setLatency("load.write_p95_ms", write, tr)
	if def("load.cache_hit_share") {
		res.set("load.cache_hit_share", ratio(float64(fixed.local), float64(fixed.attempted)))
		res.set("load.stale_beyond_delta_share", ratio(float64(fixed.nBeyond), float64(fixed.judged)))
	}
	res.set("load.failed_share", ratio(float64(fixed.failed+peak.failed), float64(fixed.attempted+peak.attempted)))

	// Generator. Lateness is windowed like the latencies it vouches for.
	var lateness []float64
	for _, w := range inWindows(fixed.lateness, tr.warm, tr.fixed) {
		v, _ := percentile(sortedCopy(w), 0.95)
		lateness = append(lateness, v)
	}
	res.set("load.lateness_p95_ms", median(lateness))
	res.set("load.completed_share", ratio(float64(fixed.attempted), float64(tr.scheduled)))
	res.setLatency("load.query_p99_ms", query, tr)
	res.setLatency("load.write_p99_ms", write, tr)

	// client: SDK counters plus the shadow model's verdicts.
	requests := d(before.cl.NetworkRequests, after.cl.NetworkRequests)
	res.set("client.revalidation_share", ratio(d(before.cl.Revalidations, after.cl.Revalidations), requests))
	res.set("client.not_modified_share", ratio(d(before.cl.NotModified, after.cl.NotModified), requests))
	res.set("client.ebf_refreshes", d(before.cl.EBFRefreshes, after.cl.EBFRefreshes))
	// ReadsByTier.ClientCache counts record reads answered locally from
	// either the cache or the own-write buffer; CacheHits counts record
	// and query cache hits. Taking out the query hits the benchmark saw
	// leaves the reads the own-write buffer answered.
	recordHits := d(before.cl.CacheHits, after.cl.CacheHits) - float64(fixed.queryLocal)
	ownReads := d(before.cl.ReadsByTier.ClientCache, after.cl.ReadsByTier.ClientCache) - recordHits
	res.set("client.own_write_read_share", ratio(max(ownReads, 0), d(before.cl.Reads, after.cl.Reads)))
	res.set("client.stale_read_share", ratio(float64(fixed.nWithin), float64(fixed.judged)))

	res.set("ebf.snapshot_bytes", float64(probe.wireBytes))
	res.set("ebf.entries", float64(probe.entries))
	res.set("ebf.false_positive_share", probe.falsePositive)

	originOps := d(b.Reads, a.Reads) + d(b.Queries, a.Queries) + d(b.Writes, a.Writes)
	res.set("server.origin_reads", d(b.Reads, a.Reads))
	res.set("server.origin_queries", d(b.Queries, a.Queries))
	res.set("server.origin_writes", d(b.Writes, a.Writes))
	res.set("server.revalidations", d(b.Revalidations, a.Revalidations))
	res.set("server.purges", d(b.Purges, a.Purges))
	res.set("server.cpu_ms_per_origin_op", ratio(cpuMs, originOps))

	res.set("ttl.admission_reject_share", ratio(d(b.RejectedQueries, a.RejectedQueries), d(b.Queries, a.Queries)))
	res.set("ttl.query_activations", d(b.QueryActivations, a.QueryActivations))
	res.set("ttl.mean_issued_ttl_s", ratio(d(before.ttlSumSec, after.ttlSumSec), d(before.ttlCount, after.ttlCount)))

	res.set("invalidb.invalidations", d(b.Invalidations, a.Invalidations))
	res.set("invalidb.invalidations_per_write", ratio(d(b.Invalidations, a.Invalidations), d(b.Writes, a.Writes)))

	plans := d(b.PlanProbes, a.PlanProbes) + d(b.PlanRanges, a.PlanRanges) + d(b.PlanScans, a.PlanScans)
	res.set("query.plan_probe_share", ratio(d(b.PlanProbes, a.PlanProbes), plans))
	res.set("query.rows_examined_per_returned", ratio(d(b.RowsExamined, a.RowsExamined), d(b.RowsReturned, a.RowsReturned)))

	if b.Durability != nil && a.Durability != nil {
		bw, aw := b.Durability.WAL, a.Durability.WAL
		appends := d(bw.Appends, aw.Appends)
		res.set("wal.fsyncs_per_write", ratio(d(bw.Fsyncs, aw.Fsyncs), appends))
		res.set("wal.mean_batch", ratio(appends, d(bw.Batches, aw.Batches)))
		res.set("wal.bytes_per_write", ratio(float64(aw.SegmentBytes-bw.SegmentBytes), appends))
		res.set("wal.segment_bytes_end", float64(aw.SegmentBytes))
	}

	bounds, counts := histogramDelta(b.Pipeline.Stream.Latency, a.Pipeline.Stream.Latency)
	res.set("commitlog.publish_to_deliver_p50_ms", histogramPercentile(bounds, counts, 0.50))
	res.set("commitlog.publish_to_deliver_p99_ms", histogramPercentile(bounds, counts, 0.99))
	var maxLag, droppedBefore, droppedAfter uint64
	for _, sub := range b.Pipeline.Stream.Subscribers {
		droppedBefore += sub.Dropped
	}
	for _, sub := range a.Pipeline.Stream.Subscribers {
		droppedAfter += sub.Dropped
		maxLag = max(maxLag, sub.LagEvents)
	}
	res.set("commitlog.max_subscriber_lag", float64(maxLag))
	res.set("commitlog.dropped", d(droppedBefore, droppedAfter))
}
