// Command quaestor-server runs a standalone Quaestor DBaaS node: the REST
// API over a sharded document store, with the Expiring Bloom Filter, TTL
// estimation and an embedded InvaliDB cluster. Put any HTTP caches (CDN,
// reverse proxy such as Varnish, browser caches) in front — responses
// carry standard Cache-Control/ETag headers, and the server purges
// registered reverse proxies on invalidation.
//
// The node is a single-process multi-primary cluster of -shards N ≥ 1
// independent shard stores (each with its own WAL, commit pipeline and
// sequence space) behind a consistent-hash router; the default is the
// N=1 case of the same topology. Writes hash to exactly one shard's
// pipeline, point reads route directly, and queries scatter-gather
// through the ordered merge. GET /v1/cluster/map serves the versioned
// shard map for shard-aware clients.
//
// With -data-dir the store is durable: writes go through a segmented
// group-commit WAL before they are acknowledged, POST /v1/admin/snapshot
// takes point-in-time snapshots (-auto-snapshot-mb takes them
// automatically once the WAL grows past a threshold), and restart
// recovers snapshot + log tail (see /v1/stats for the recovery and WAL
// counters). Each shard keeps its own lineage under data-dir/shard-i.
//
// With -replica-of the node runs as a read-only log-shipping replica of
// another server: it bootstraps from the primary's snapshot, follows its
// ordered commit pipeline, serves reads with staleness headers, rejects
// writes with 503, and can be promoted to a writable primary via
// POST /v1/replication/promote (quaestor-cli promote). A replica runs
// one replication loop per shard against the primary's per-shard streams
// (?shard=i), so -shards must match the primary's.
//
// With -advertise-replicas (and optionally -advertise-primary) the node
// publishes its read topology at GET /v1/cluster/replicas; SDK clients
// dialed with DiscoverReplicas route staleness-bounded reads across the
// advertised replica endpoints and fall back to the primary.
//
// With -failover the node also runs an embedded failover coordinator: it
// heartbeats the supervised primary, and when the primary stays dead past
// the failure threshold it elects the freshest candidate replica per
// shard, promotes it, rewrites the shard map (epoch bump) on every
// survivor, and fences the old primary if it comes back. Run it on a
// replica (-replica-of) with -advertise-self so the replica can elect and
// advertise itself.
//
// Usage:
//
//	quaestor-server -addr :8080 -tables posts,users \
//	    -query-partitions 4 -object-partitions 2 -mode quaestor \
//	    -data-dir ./data -fsync always
//
//	quaestor-server -addr :8080 -shards 4 -data-dir ./data
//
//	quaestor-server -addr :8081 -replica-of http://localhost:8080 \
//	    -shards 4 -data-dir ./replica-data
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"quaestor/internal/cluster"
	"quaestor/internal/coordinator"
	"quaestor/internal/invalidb"
	"quaestor/internal/replication"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/wal"
)

func main() { os.Exit(run()) }

// run is main with an exit status, so its deferred shutdown calls run
// before the process ends.
func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	tables := flag.String("tables", "posts", "comma-separated tables to create at startup")
	indexes := flag.String("indexes", "", "comma-separated table:field.path secondary indexes to create at startup (e.g. posts:tags,posts:author)")
	queryParts := flag.Int("query-partitions", 2, "InvaliDB query partitions (columns)")
	objectParts := flag.Int("object-partitions", 2, "InvaliDB object partitions (rows)")
	maxQueries := flag.Int("max-queries", 10000, "capacity of the active list: queries cached and matched by InvaliDB at once (0 = unlimited)")
	modeName := flag.String("mode", "quaestor", "cache mode: quaestor, cdn-only, client-only, uncached")
	shards := flag.Int("shards", 1, "cluster shards: independent stores + commit pipelines, writes consistent-hashed across them")
	dataDir := flag.String("data-dir", "", "enable durability: WAL + snapshots under this directory (empty = in-memory)")
	fsyncMode := flag.String("fsync", "always", "WAL fsync policy: always, interval, never")
	fsyncInterval := flag.Duration("fsync-interval", 25*time.Millisecond, "max sync lag under -fsync interval")
	segmentMB := flag.Int64("wal-segment-mb", 8, "WAL segment rotation threshold in MiB")
	autoSnapMB := flag.Int64("auto-snapshot-mb", 0, "snapshot automatically once the WAL reaches this many MiB (0 = manual snapshots only)")
	replicaOf := flag.String("replica-of", "", "run as a read-only log-shipping replica of this primary base URL (e.g. http://primary:8080)")
	replicaName := flag.String("replica-name", "", "replica id reported in the primary's pipeline stats (default: the listen address)")
	advertisePrimary := flag.String("advertise-primary", "", "primary base URL advertised to clients via GET /v1/cluster/replicas (default: none)")
	advertiseReplicas := flag.String("advertise-replicas", "", "comma-separated replica base URLs advertised via GET /v1/cluster/replicas for staleness-bounded read routing")
	advertiseSelf := flag.String("advertise-self", "", "this node's own externally reachable base URL; a promoted replica advertises it as the new primary")
	failover := flag.Bool("failover", false, "run an embedded failover coordinator supervising -failover-primary (see internal/coordinator)")
	failoverPrimary := flag.String("failover-primary", "", "primary base URL the coordinator supervises (default: -replica-of)")
	failoverReplicas := flag.String("failover-replicas", "", "comma-separated candidate replica base URLs the coordinator elects a new primary from (default: -advertise-self)")
	failoverHeartbeat := flag.Duration("failover-heartbeat", 500*time.Millisecond, "coordinator heartbeat probe interval")
	failoverThreshold := flag.Int("failover-threshold", 3, "consecutive failed probes before the coordinator declares the primary dead")
	failoverTimeout := flag.Duration("failover-timeout", 2*time.Second, "coordinator per-probe HTTP timeout")
	flag.Parse()

	var mode server.CacheMode
	switch *modeName {
	case "quaestor":
		mode = server.ModeFull
	case "cdn-only":
		mode = server.ModeCDNOnly
	case "client-only":
		mode = server.ModeClientOnly
	case "uncached":
		mode = server.ModeUncached
	default:
		log.Fatalf("unknown mode %q", *modeName)
	}

	fsync, err := wal.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		log.Fatal(err)
	}
	storeOpts := store.Options{
		DataDir: *dataDir,
		Durability: store.Durability{
			Fsync:         fsync,
			FsyncInterval: *fsyncInterval,
			SegmentBytes:  *segmentMB << 20,
		},
		AutoSnapshotBytes: *autoSnapMB << 20,
	}
	router, err := cluster.Open(cluster.Options{Shards: *shards, Store: storeOpts})
	if err != nil {
		log.Fatalf("opening store: %v", err)
	}
	defer router.Close()
	for i, db := range router.Stores() {
		if st, ok := db.DurabilityStats(); ok {
			fmt.Printf("shard %d: durable store at %s (fsync=%s): recovered %d tables, %d docs from snapshot + %d log records (torn tail: %v), last seq %d in %.1fms\n",
				i, st.DataDir, fsync, st.Recovery.Tables, st.Recovery.SnapshotDocs,
				st.Recovery.ReplayedRecords, st.Recovery.TornTail, st.Recovery.LastSeq, st.Recovery.TookMs)
		}
	}

	srvOpts := &server.Options{
		Mode: mode,
		InvaliDB: &invalidb.Config{
			QueryPartitions:  *queryParts,
			ObjectPartitions: *objectParts,
			MaxQueries:       *maxQueries,
		},
	}
	srv := server.NewCluster(router, srvOpts)
	defer srv.Close()

	if *advertisePrimary != "" || *advertiseReplicas != "" {
		var reps []string
		for _, u := range strings.Split(*advertiseReplicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				reps = append(reps, u)
			}
		}
		srv.SetReplicaEndpoints(*advertisePrimary, reps)
	}
	if *advertiseSelf != "" {
		srv.SetSelfURL(*advertiseSelf)
	}

	if *failover {
		primary := *failoverPrimary
		if primary == "" {
			primary = *replicaOf
		}
		if primary == "" {
			log.Fatal("-failover needs -failover-primary (or -replica-of) to supervise")
		}
		var cands []string
		for _, u := range strings.Split(*failoverReplicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cands = append(cands, u)
			}
		}
		if len(cands) == 0 && *advertiseSelf != "" {
			cands = []string{*advertiseSelf}
		}
		if len(cands) == 0 {
			log.Fatal("-failover needs -failover-replicas (candidate endpoints to elect from)")
		}
		co, err := coordinator.New(coordinator.Options{
			Primary:           primary,
			Replicas:          cands,
			HeartbeatInterval: *failoverHeartbeat,
			ProbeTimeout:      *failoverTimeout,
			FailureThreshold:  *failoverThreshold,
			Logf:              log.Printf,
		})
		if err != nil {
			log.Fatalf("failover coordinator: %v", err)
		}
		co.Run()
		defer co.Stop()
		srv.AttachCoordinator(co)
	}

	if *replicaOf != "" {
		// Tables, indexes and documents all arrive through replication;
		// -tables/-indexes are for primaries and are ignored here. Each
		// shard store follows the primary's matching shard stream.
		name := *replicaName
		if name == "" {
			name = *addr
		}
		repls := make([]*replication.Replica, router.NumShards())
		for i, db := range router.Stores() {
			repls[i] = replication.New(replication.Options{
				Store:   db,
				Primary: *replicaOf,
				Name:    fmt.Sprintf("%s/shard-%d", name, i),
				Shard:   i,
				Logf:    log.Printf,
			})
			repls[i].Run()
			defer repls[i].Stop()
		}
		srv.AttachReplicas(repls...)
		fmt.Printf("quaestor-server listening on %s as read-only replica of %s, %d shard(s) (promote via POST /v1/replication/promote)\n",
			*addr, *replicaOf, router.NumShards())
	} else {
		createSchema(router, *tables, *indexes)
		fmt.Printf("quaestor-server listening on %s (mode=%s, shards=%d, invalidb=%dx%d)\n",
			*addr, mode, router.NumShards(), *objectParts, *queryParts)
	}
	if err := serve(*addr, srv.Handler()); err != nil {
		// Not Fatal: the deferred Close/Stop calls still seal the WAL.
		log.Printf("quaestor-server: %v", err)
		return 1
	}
	return 0
}

// Connection limits. There is deliberately no ReadTimeout/WriteTimeout:
// SSE subscriptions and replication streams are long-lived responses.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 10 * time.Second
)

// serve runs the HTTP server until SIGINT/SIGTERM, then drains it:
// Shutdown stops accepting, ends the long-lived streams (their request
// contexts hang off one base context it cancels) and waits up to
// shutdownGrace for the requests in flight. It returns nil on a signalled
// stop, so run's deferred calls follow — replication and failover loops
// stop, the server closes, and the stores seal their WALs (flushing and
// fsyncing whatever -fsync interval/never still held back).
func serve(addr string, h http.Handler) error {
	streams, endStreams := context.WithCancel(context.Background())
	defer endStreams()
	hs := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
		BaseContext: func(net.Listener) context.Context { return streams }}
	hs.RegisterOnShutdown(endStreams)
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-sig.Done():
	}
	stop() // a second signal ends the process the default way
	log.Printf("quaestor-server: shutting down")
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if hs.Shutdown(grace) != nil {
		hs.Close()
	}
	return nil
}

// createSchema creates a primary's startup tables and table:field.path
// indexes on every shard.
func createSchema(router *cluster.Router, tables, indexes string) {
	for _, t := range strings.Split(tables, ",") {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		if err := router.CreateTable(t); err != nil {
			log.Fatalf("creating table %q: %v", t, err)
		}
	}
	for _, spec := range strings.Split(indexes, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		table, path, ok := strings.Cut(spec, ":")
		if !ok {
			log.Fatalf("index spec %q must be table:field.path", spec)
		}
		if err := router.CreateIndex(table, path); err != nil {
			log.Fatalf("creating index %q: %v", spec, err)
		}
	}
}
