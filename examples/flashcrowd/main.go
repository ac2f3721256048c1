// Flashcrowd: the paper's production anecdote (Section 6.2). The
// e-commerce shop "Thinks" was featured on TV in front of 3.5M viewers and
// had to serve 50,000 concurrent users (>20,000 HTTP requests/s) with
// sub-second loads — and because the CDN cache hit rate was 98%, two DBaaS
// servers and two MongoDB shards carried the entire event.
//
// This example replays the scenario in the Monte Carlo simulator: a small
// product catalog (articles with live stock counters), an extremely
// read-heavy flash-crowd access pattern, and a deliberately small origin.
//
// It then stands up the same shape as a real in-process topology — one
// primary plus two log-shipping replicas — and drives the multi-endpoint
// SDK client against it with staleness-bounded reads, printing which
// cache tier (client cache, replica, primary) absorbed each read.
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"quaestor/internal/client"
	"quaestor/internal/document"
	"quaestor/internal/replication"
	"quaestor/internal/server"
	"quaestor/internal/sim"
	"quaestor/internal/store"
	"quaestor/internal/workload"
)

func main() {
	cfg := &sim.Config{
		// A shop catalog: one "table" of 2,000 articles, 200 category
		// queries (articles by tag), results of ~10 articles.
		Dataset: &workload.DatasetConfig{
			Tables:          1,
			DocsPerTable:    2000,
			QueriesPerTable: 200,
			MeanResultSize:  10,
			Seed:            3,
		},
		// Flash-crowd traffic: overwhelmingly reads and category queries,
		// a trickle of stock-counter updates.
		Mix:   workload.Mix{Read: 0.60, Query: 0.395, Update: 0.005},
		ZipfS: 0.9, // everyone looks at the featured articles

		// 50,000 concurrent users ≈ 500 simulated client instances with
		// 6 browser connections each (scaled 1:16 in instance count, the
		// connection math is what matters for the caches).
		Clients:        500,
		ConnsPerClient: 6,
		Duration:       30 * time.Second,
		EBFRefresh:     2 * time.Second,
		Mode:           server.ModeFull,
		// Real users pause between page interactions; 120 ms mean think
		// time per connection yields the paper's >20k req/s aggregate.
		ThinkTime: 120 * time.Millisecond,

		// "the load could be handled by 2 DBaaS servers and 2 MongoDB
		// shards": a deliberately small origin.
		ServerRate: 8000,
		CDNRate:    500000,
		MaxOps:     1500000,
		Seed:       99,
	}

	fmt.Println("simulating the flash crowd (30s of virtual time)...")
	start := time.Now()
	m := sim.Run(cfg)
	fmt.Printf("done in %v wall time\n\n", time.Since(start).Round(time.Millisecond))

	served := m.ClientHitsReads + m.ClientHitsQueries + m.CDNHitsReads + m.CDNHitsQueries
	total := m.Reads + m.Queries
	cdnRequests := m.CDNHitsReads + m.CDNHitsQueries + m.MissReads + m.MissQueries
	cdnHits := m.CDNHitsReads + m.CDNHitsQueries

	fmt.Printf("throughput:        %.0f requests/s (paper: >20,000 req/s)\n", m.Throughput)
	fmt.Printf("cache offload:     %.1f%% of data requests never reached the origin\n",
		100*float64(served)/float64(total))
	fmt.Printf("CDN hit rate:      %.1f%% (paper: 98%%)\n", 100*float64(cdnHits)/float64(cdnRequests))
	fmt.Printf("origin load:       %.0f requests/s against capacity %d/s\n",
		float64(m.MissReads+m.MissQueries)/m.SimulatedDuration.Seconds(), int(cfg.ServerRate))
	fmt.Printf("query latency:     mean %.1f ms, p99 %.1f ms (sub-second loads)\n",
		m.QueryLatency.Mean(), m.QueryLatency.Percentile(0.99))
	fmt.Printf("read latency:      mean %.1f ms, p99 %.1f ms\n",
		m.ReadLatency.Mean(), m.ReadLatency.Percentile(0.99))
	fmt.Printf("stale responses:   %.1f%% saw a stock counter behind the newest update,\n", 100*(m.StaleRate(true)+m.StaleRate(false))/2)
	fmt.Printf("                   but never by more than Δ: max staleness %v (bound %s + TTL slack)\n",
		m.MaxStaleness.Round(time.Millisecond), cfg.EBFRefresh)

	replicaTier()
}

// replicaTier replays the read side against a real topology: one primary
// and two replicas, the client discovering the replica set from the
// primary's advertisement and spreading bounded reads across it.
func replicaTier() {
	fmt.Println("\nread routing across a 2-replica chain (real topology, in-process):")

	const articles = 200
	primary := store.MustOpen(nil)
	defer primary.Close()
	srv := server.New(primary, nil)
	defer srv.Close()
	if err := primary.CreateTable("articles"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < articles; i++ {
		doc := document.New(fmt.Sprintf("a%03d", i), map[string]any{"stock": int64(100)})
		if err := primary.Insert("articles", doc); err != nil {
			log.Fatal(err)
		}
	}

	// Client traffic runs in-process; the replication stream is long-lived
	// and needs a flushing ResponseWriter, so the feed gets a real socket.
	handlers := map[string]http.Handler{"http://primary": srv.Handler()}
	feed := httptest.NewServer(srv.Handler())
	defer feed.Close()

	var urls []string
	for i := 0; i < 2; i++ {
		rdb := store.MustOpen(nil)
		defer rdb.Close()
		repl := replication.New(replication.Options{
			Store:      rdb,
			Primary:    feed.URL,
			Name:       fmt.Sprintf("replica-%d", i),
			MinBackoff: 5 * time.Millisecond,
			MaxBackoff: 100 * time.Millisecond,
		})
		repl.Run()
		defer repl.Stop()
		rsrv := server.New(rdb, nil)
		defer rsrv.Close()
		rsrv.AttachReplicas(repl)
		url := fmt.Sprintf("http://replica-%d", i)
		handlers[url] = rsrv.Handler()
		urls = append(urls, url)

		deadline := time.Now().Add(15 * time.Second)
		for {
			st := repl.Status()
			if st.State == replication.StateStreaming && st.StalenessMs >= 0 && st.LastSeq >= primary.LastSeq() {
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("replica %d never caught up: %+v", i, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	srv.SetReplicaEndpoints("http://primary", urls)

	c, err := client.Dial(&client.Options{
		Transport:        client.NewHostMapTransport(handlers),
		BaseURL:          "http://primary",
		DiscoverReplicas: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered replica endpoints: %v\n", c.ReplicaEndpoints())

	// The flash-crowd read side in miniature: every article read twice
	// under a relaxed bound (second hit lands in the client cache), the
	// featured articles re-checked at bound 0 (stock counters must be
	// primary-fresh at checkout).
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < articles; i++ {
			if _, err := c.ReadWith("articles", fmt.Sprintf("a%03d", i), client.WithMaxStaleness(5*time.Second)); err != nil {
				log.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := c.ReadWith("articles", fmt.Sprintf("a%03d", i), client.WithMaxStaleness(0)); err != nil {
			log.Fatal(err)
		}
	}

	st := c.Stats()
	tiers := st.ReadsByTier
	total := tiers.Primary + tiers.Replica + tiers.ClientCache
	fmt.Printf("reads by tier:     client cache %d (%.0f%%), replicas %d (%.0f%%), primary %d (%.0f%%)\n",
		tiers.ClientCache, 100*float64(tiers.ClientCache)/float64(total),
		tiers.Replica, 100*float64(tiers.Replica)/float64(total),
		tiers.Primary, 100*float64(tiers.Primary)/float64(total))
	fmt.Printf("staleness retries: %d (412-rejected or over-bound replica answers, re-routed)\n", st.StalenessRetries)
	fmt.Println("bound-0 reads bypassed every cache tier — the primary answered all 10.")
}
