package sim

import (
	"container/heap"
	"testing"
	"time"

	"quaestor/internal/server"
	"quaestor/internal/ttl"
	"quaestor/internal/workload"
)

func tinyConfig(mode server.CacheMode) *Config {
	return &Config{
		Dataset:        &workload.DatasetConfig{Tables: 2, DocsPerTable: 500, QueriesPerTable: 20},
		Clients:        4,
		ConnsPerClient: 25,
		Duration:       5 * time.Second,
		Mode:           mode,
		DisableEBF:     mode == server.ModeCDNOnly || mode == server.ModeUncached,
		MaxOps:         150000,
		Seed:           21,
	}
}

// TestModeOrdering asserts Figure 8a's qualitative result: Quaestor beats
// CDN-only, which beats the EBF-only client cache, which beats the
// uncached baseline.
func TestModeOrdering(t *testing.T) {
	tput := map[server.CacheMode]float64{}
	for _, mode := range []server.CacheMode{server.ModeFull, server.ModeClientOnly, server.ModeCDNOnly, server.ModeUncached} {
		m := Run(tinyConfig(mode))
		if m.Ops == 0 {
			t.Fatalf("%v simulated no ops", mode)
		}
		tput[mode] = m.Throughput
	}
	if !(tput[server.ModeFull] > tput[server.ModeCDNOnly]) {
		t.Errorf("Quaestor (%.0f) should beat CDN-only (%.0f)", tput[server.ModeFull], tput[server.ModeCDNOnly])
	}
	if !(tput[server.ModeCDNOnly] > tput[server.ModeClientOnly]) {
		t.Errorf("CDN-only (%.0f) should beat client-only (%.0f)", tput[server.ModeCDNOnly], tput[server.ModeClientOnly])
	}
	if !(tput[server.ModeClientOnly] > tput[server.ModeUncached]) {
		t.Errorf("client-only (%.0f) should beat uncached (%.0f)", tput[server.ModeClientOnly], tput[server.ModeUncached])
	}
	if speedup := tput[server.ModeFull] / tput[server.ModeUncached]; speedup < 3 {
		t.Errorf("Quaestor speedup vs uncached = %.1fx, expected substantial", speedup)
	}
}

// TestUncachedNeverStale: without caches there is nothing to go stale.
func TestUncachedNeverStale(t *testing.T) {
	m := Run(tinyConfig(server.ModeUncached))
	if m.StaleReads+m.StaleQueries != 0 {
		t.Errorf("uncached run reported staleness: %d/%d", m.StaleReads, m.StaleQueries)
	}
	if m.ClientHitsReads+m.CDNHitsReads+m.ClientHitsQueries+m.CDNHitsQueries != 0 {
		t.Error("uncached run reported cache hits")
	}
	if m.MissReads != m.Reads || m.MissQueries != m.Queries {
		t.Error("uncached run should miss everything")
	}
}

// TestStalenessBoundedByDelta is the simulation counterpart of Theorem 1:
// no response may be staler than the EBF refresh interval plus the
// invalidation-propagation delay.
func TestStalenessBoundedByDelta(t *testing.T) {
	cfg := tinyConfig(server.ModeFull)
	cfg.EBFRefresh = 2 * time.Second
	cfg.InvalidationLatency = 50 * time.Millisecond
	cfg.Mix = workload.Mix{Read: 0.4, Query: 0.4, Update: 0.2} // write-heavy to provoke staleness
	m := Run(cfg)
	if m.StalenessEvents == 0 {
		t.Skip("no staleness provoked; nothing to bound")
	}
	bound := cfg.EBFRefresh + cfg.InvalidationLatency + 200*time.Millisecond // response-latency slack
	if m.MaxStaleness > bound {
		t.Errorf("max staleness %v exceeds Δ bound %v", m.MaxStaleness, bound)
	}
}

// TestTighterDeltaReducesStaleness: the client-controlled consistency knob
// must actually trade freshness for cache misses (Figure 10's slope).
func TestTighterDeltaReducesStaleness(t *testing.T) {
	rates := map[time.Duration]float64{}
	for _, delta := range []time.Duration{500 * time.Millisecond, 20 * time.Second} {
		cfg := tinyConfig(server.ModeFull)
		cfg.EBFRefresh = delta
		cfg.Mix = workload.Mix{Read: 0.4, Query: 0.4, Update: 0.2}
		cfg.ThinkTime = 20 * time.Millisecond
		m := Run(cfg)
		rates[delta] = m.StaleRate(true) + m.StaleRate(false)
	}
	if rates[500*time.Millisecond] >= rates[20*time.Second] {
		t.Errorf("staleness did not decrease with tighter Δ: %.4f (0.5s) vs %.4f (20s)",
			rates[500*time.Millisecond], rates[20*time.Second])
	}
}

// TestDeterminism: identical seeds produce identical runs — the property
// the Monte Carlo analysis depends on for reproducibility.
func TestDeterminism(t *testing.T) {
	a := Run(tinyConfig(server.ModeFull))
	b := Run(tinyConfig(server.ModeFull))
	if a.Ops != b.Ops || a.StaleQueries != b.StaleQueries || a.ClientHitsQueries != b.ClientHitsQueries {
		t.Errorf("runs diverged: ops %d/%d, staleQ %d/%d, hitsQ %d/%d",
			a.Ops, b.Ops, a.StaleQueries, b.StaleQueries, a.ClientHitsQueries, b.ClientHitsQueries)
	}
	c := tinyConfig(server.ModeFull)
	c.Seed = 99
	d := Run(c)
	if d.Ops == a.Ops && d.StaleQueries == a.StaleQueries && d.ClientHitsQueries == a.ClientHitsQueries {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// TestWriteRateDegradesHitRate reproduces Figure 9's relationship in
// miniature: higher update rates must lower client query hit rates.
func TestWriteRateDegradesHitRate(t *testing.T) {
	hitRate := func(updateShare float64) float64 {
		cfg := tinyConfig(server.ModeFull)
		read := (1 - updateShare) / 2
		cfg.Mix = workload.Mix{Read: read, Query: read, Update: updateShare}
		return Run(cfg).ClientHitRate(true)
	}
	low, high := hitRate(0.01), hitRate(0.30)
	if low <= high {
		t.Errorf("hit rate should fall with update rate: %.3f (1%%) vs %.3f (30%%)", low, high)
	}
}

// TestTTLEstimatesTrackTrueTTLs checks Figure 11's property: the estimated
// TTL distribution must be in the same ballpark as the true one.
func TestTTLEstimatesTrackTrueTTLs(t *testing.T) {
	cfg := tinyConfig(server.ModeFull)
	cfg.Duration = 30 * time.Second
	cfg.MaxOps = 400000
	cfg.Mix = workload.Mix{Read: 0.45, Query: 0.45, Update: 0.10}
	m := Run(cfg)
	if m.TrueTTLs.Count() == 0 || m.EstimatedTTLs.Count() == 0 {
		t.Skip("no TTL samples collected")
	}
	est, tru := m.EstimatedTTLs.Percentile(0.5), m.TrueTTLs.Percentile(0.5)
	if est > tru*20 || tru > est*20 {
		t.Errorf("median estimated TTL %.0fms vs true %.0fms — more than 20x apart", est, tru)
	}
}

// TestThinkTimeThrottlesThroughput: think time must reduce the offered load.
func TestThinkTimeThrottlesThroughput(t *testing.T) {
	base := Run(tinyConfig(server.ModeFull)).Throughput
	cfg := tinyConfig(server.ModeFull)
	cfg.ThinkTime = 100 * time.Millisecond
	throttled := Run(cfg).Throughput
	if throttled >= base/2 {
		t.Errorf("think time barely throttled: %.0f vs %.0f", throttled, base)
	}
}

// TestServerCapacitySaturation: the origin's rate limit must cap uncached
// throughput (the Figure 8a plateau).
func TestServerCapacitySaturation(t *testing.T) {
	cfg := tinyConfig(server.ModeUncached)
	cfg.ServerRate = 500
	cfg.ClientServerRTT = 5 * time.Millisecond // demand far above capacity
	m := Run(cfg)
	if m.Throughput > 700 {
		t.Errorf("uncached throughput %.0f exceeded server capacity 500 by far", m.Throughput)
	}
}

// TestCDNStalenessGovernedByInvalidationLatency: CDN staleness is
// "primarily governed by invalidation latency" (Section 6.2) — fast purges
// must keep the CDN's stale share small, and slower purge propagation must
// increase it.
func TestCDNStalenessGovernedByInvalidationLatency(t *testing.T) {
	share := func(invLatency time.Duration) float64 {
		cfg := tinyConfig(server.ModeFull)
		cfg.Mix = workload.Mix{Read: 0.45, Query: 0.45, Update: 0.10}
		cfg.InvalidationLatency = invLatency
		m := Run(cfg)
		total := m.Reads + m.Queries
		if total == 0 {
			t.Fatal("no ops")
		}
		return float64(m.StaleCDNServes) / float64(total)
	}
	fast := share(2 * time.Millisecond)
	slow := share(500 * time.Millisecond)
	if fast > 0.01 {
		t.Errorf("CDN stale share with 2ms purges = %.4f, want < 1%%", fast)
	}
	if slow <= fast {
		t.Errorf("slower purges should increase CDN staleness: fast=%.4f slow=%.4f", fast, slow)
	}
}

// newTestSim builds a small full-stack simulation that tests drive op by
// op (see at and do) instead of running its event loop.
func newTestSim(t *testing.T, mutate func(*Config)) *Sim {
	t.Helper()
	cfg := &Config{
		Dataset:        &workload.DatasetConfig{Tables: 1, DocsPerTable: 100, QueriesPerTable: 10, MeanResultSize: 10, Seed: 2},
		Clients:        2,
		ConnsPerClient: 1,
		Duration:       time.Minute,
		Mode:           server.ModeFull,
		Seed:           5,
	}
	if mutate != nil {
		mutate(cfg)
	}
	s := New(cfg)
	t.Cleanup(s.close)
	return s
}

// at runs every event scheduled up to offset (from the start of virtual
// time) and moves the clock there.
func (s *Sim) at(offset time.Duration) {
	until := time.Unix(0, 0).UTC().Add(offset)
	for s.queue.Len() > 0 && !s.queue[0].at.After(until) {
		ev := heap.Pop(&s.queue).(*event)
		s.setNow(ev.at)
		ev.fn()
	}
	s.setNow(until)
}

func readOp(table, id string) workload.Op {
	return workload.Op{Type: workload.OpRead, Table: table, DocID: id}
}

func updateOp(table, id, tag string) workload.Op {
	return workload.Op{Type: workload.OpUpdate, Table: table, DocID: id, UpdateTag: tag}
}

// service is one request's service time at a resource of the given rate.
func service(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

// TestChargePerTier: an operation is charged the hops it took, on idle
// queues: the origin through the CDN costs ClientServerRTT plus both
// service times, a CDN hit ClientCDNRTT plus the CDN's, and a
// browser-cache hit, which reaches no transport, ClientHitCost.
func TestChargePerTier(t *testing.T) {
	s := newTestSim(t, nil)
	table, id := s.ds.Tables[0], s.ds.Docs[s.ds.Tables[0]][0].ID
	cfg := s.cfg

	s.at(100 * time.Millisecond)
	if got, want := s.do(s.clients[0], readOp(table, id)), cfg.ClientServerRTT+service(cfg.CDNRate)+service(cfg.ServerRate); got != want {
		t.Errorf("origin read charged %v, want %v", got, want)
	}
	s.at(200 * time.Millisecond)
	if got, want := s.do(s.clients[1], readOp(table, id)), cfg.ClientCDNRTT+service(cfg.CDNRate); got != want {
		t.Errorf("CDN hit charged %v, want %v", got, want)
	}
	s.at(300 * time.Millisecond)
	if got := s.do(s.clients[0], readOp(table, id)); got != cfg.ClientHitCost {
		t.Errorf("browser hit charged %v, want %v", got, cfg.ClientHitCost)
	}
	if m := s.met; m.MissReads != 1 || m.CDNHitsReads != 1 || m.ClientHitsReads != 1 {
		t.Errorf("tiers: miss %d, cdn %d, client %d; want one each", m.MissReads, m.CDNHitsReads, m.ClientHitsReads)
	}
	if got := s.met.ReadLatency.Count(); got != 3 {
		t.Errorf("read latencies observed: %d, want 3", got)
	}
}

// TestPurgeReachesCDNAfterInvalidationLatency: the EBF flags a written
// key when the write is detected, and the CDN's copy is purged
// InvalidationLatency later.
func TestPurgeReachesCDNAfterInvalidationLatency(t *testing.T) {
	s := newTestSim(t, func(c *Config) { c.InvalidationLatency = 100 * time.Millisecond })
	table, id := s.ds.Tables[0], s.ds.Docs[s.ds.Tables[0]][0].ID
	path := server.RecordPath(table, id)

	s.at(100 * time.Millisecond)
	s.do(s.clients[0], readOp(table, id))
	if _, ok := s.cdn.Cache.Get(path); !ok {
		t.Fatal("the origin read did not fill the CDN")
	}
	s.at(200 * time.Millisecond)
	s.do(s.clients[1], updateOp(table, id, "tag00007"))
	if !s.srv.EBFSnapshot().Contains(server.RecordKey(table, id)) {
		t.Error("the EBF does not flag the key once the write is acknowledged")
	}
	s.at(299 * time.Millisecond)
	if _, ok := s.cdn.Cache.Get(path); !ok {
		t.Error("the CDN copy was purged before the invalidation latency elapsed")
	}
	s.at(300 * time.Millisecond)
	if _, ok := s.cdn.Cache.Get(path); ok {
		t.Error("the CDN copy survived the invalidation latency")
	}
}

// TestFlaggedKeyRefetchedAfterRefresh: a client whose filter predates a
// write keeps answering from its browser cache — stale, and judged so
// from the write log — until its next filter refresh; the first operation
// after the refresh refetches the flagged key.
func TestFlaggedKeyRefetchedAfterRefresh(t *testing.T) {
	s := newTestSim(t, func(c *Config) { c.Representation = server.RepAlwaysObjects })
	table := s.ds.Tables[0]
	q := s.ds.ByTable[table][0]
	members, err := s.db.Query(q)
	if err != nil || len(members) == 0 {
		t.Fatalf("query %s has no members (%v)", q.Key(), err)
	}
	id := members[0].ID
	queryOp := workload.Op{Type: workload.OpQuery, Table: table, Query: q}

	s.at(100 * time.Millisecond)
	s.do(s.clients[0], readOp(table, id))
	s.do(s.clients[0], queryOp)
	s.at(200 * time.Millisecond)
	s.do(s.clients[1], updateOp(table, id, "tag09999"))

	s.at(500 * time.Millisecond) // the filter, fetched at dial time, is 0.5 s old
	s.do(s.clients[0], readOp(table, id))
	s.do(s.clients[0], queryOp)
	m := s.met
	if m.ClientHitsReads != 1 || m.ClientHitsQueries != 1 {
		t.Fatalf("before the refresh: %d read and %d query hits, want 1 and 1", m.ClientHitsReads, m.ClientHitsQueries)
	}
	if m.StaleReads != 1 || m.StaleQueries != 1 || m.MaxStaleness != 300*time.Millisecond {
		t.Errorf("judged %d stale reads, %d stale queries, max %v; want 1, 1, 300ms",
			m.StaleReads, m.StaleQueries, m.MaxStaleness)
	}

	s.at(1100 * time.Millisecond)
	s.do(s.clients[0], readOp(table, id))
	if tier := s.answeredBy(server.RecordPath(table, id)); tier != tierOrigin {
		t.Errorf("the first read after the refresh was answered by tier %d, want the origin", tier)
	}
	s.do(s.clients[0], queryOp)
	if m.MissQueries != 2 || m.StaleReads != 1 || m.StaleQueries != 1 {
		t.Errorf("after the refresh: %d query misses, %d/%d stale; want 2, 1/1", m.MissQueries, m.StaleReads, m.StaleQueries)
	}
}

// TestChooseRepPolicies: the server's representation policy is what the
// SDK receives.
func TestChooseRepPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy server.RepresentationPolicy
		want   ttl.Representation
	}{
		{server.RepAlwaysIDs, ttl.IDList},
		{server.RepAlwaysObjects, ttl.ObjectList},
	} {
		s := newTestSim(t, func(c *Config) { c.Representation = tc.policy })
		s.at(100 * time.Millisecond)
		res, err := s.clients[0].sdk.Query(s.ds.Queries[0])
		if err != nil {
			t.Fatal(err)
		}
		if res.Representation != tc.want {
			t.Errorf("policy %v served %v, want %v", tc.policy, res.Representation, tc.want)
		}
	}
}

func TestQueueDelaySaturates(t *testing.T) {
	now := time.Unix(0, 0)
	var busy time.Time
	// Capacity 10/s => service time 100ms. Three back-to-back arrivals
	// queue behind each other.
	d1 := queueDelay(now, &busy, 10)
	d2 := queueDelay(now, &busy, 10)
	d3 := queueDelay(now, &busy, 10)
	if d1 != 100*time.Millisecond || d2 != 200*time.Millisecond || d3 != 300*time.Millisecond {
		t.Errorf("delays = %v %v %v", d1, d2, d3)
	}
	// After the backlog clears, delay resets to one service time.
	later := now.Add(time.Minute)
	if d := queueDelay(later, &busy, 10); d != 100*time.Millisecond {
		t.Errorf("post-idle delay = %v", d)
	}
}
