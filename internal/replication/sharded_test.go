package replication_test

// Sharded replication end to end: a sharded primary serves per-shard
// replication streams (?shard=i), a sharded replica runs one follower
// loop per shard, each shard pair converges byte-identically, the
// replica's status endpoint reports per-shard statuses, bounced writes
// advertise the primary, and promotion flips every shard at once.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/replication"
	"quaestor/internal/server"
	"quaestor/internal/testutil"
)

// shardedPair is a sharded primary and a sharded replica node following
// it, one follower loop per shard, both behind real HTTP servers.
type shardedPair struct {
	prouter, rrouter *cluster.Router
	repls            []*replication.Replica
	pts, rts         *httptest.Server
}

// startShardedPair starts a primary with the given shard count, seeds
// docs d000..d119, and attaches a replica node following every shard.
func startShardedPair(t *testing.T, shards int) *shardedPair {
	t.Helper()
	prouter := cluster.MustOpen(cluster.Options{Shards: shards})
	psrv := server.NewCluster(prouter, &server.Options{})
	pts, stopPTS := testutil.StartServer(psrv.Handler())
	t.Cleanup(func() {
		stopPTS()
		psrv.Close()
		prouter.Close()
	})
	if err := prouter.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		doc := document.New(fmt.Sprintf("d%03d", i), map[string]any{"v": int64(i % 9)})
		if err := prouter.Insert("docs", doc); err != nil {
			t.Fatal(err)
		}
	}

	rrouter := cluster.MustOpen(cluster.Options{Shards: shards})
	t.Cleanup(rrouter.Close)
	repls := make([]*replication.Replica, shards)
	for i := 0; i < shards; i++ {
		repls[i] = replication.New(replication.Options{
			Store:      rrouter.Store(i),
			Primary:    pts.URL,
			Name:       fmt.Sprintf("r/shard-%d", i),
			Shard:      i,
			MinBackoff: 5 * time.Millisecond,
			MaxBackoff: 100 * time.Millisecond,
			Logf:       t.Logf,
		})
		repls[i].Run()
		t.Cleanup(repls[i].Stop)
	}
	rsrv := server.NewCluster(rrouter, &server.Options{})
	rsrv.AttachReplicas(repls...)
	rts, stopRTS := testutil.StartServer(rsrv.Handler())
	t.Cleanup(func() {
		stopRTS()
		rsrv.Close()
	})
	return &shardedPair{prouter: prouter, rrouter: rrouter, repls: repls, pts: pts, rts: rts}
}

func TestShardedReplicationPerShardStreams(t *testing.T) {
	const shards = 2
	sp := startShardedPair(t, shards)
	prouter, rrouter, repls, pts, rts := sp.prouter, sp.rrouter, sp.repls, sp.pts, sp.rts

	// DDL after attach: the fan-out sequences one create-index per shard
	// pipeline and every follower learns it live.
	if err := prouter.CreateIndex("docs", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 120; i < 160; i++ {
		doc := document.New(fmt.Sprintf("d%03d", i), map[string]any{"v": int64(i % 9)})
		if err := prouter.Insert("docs", doc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < shards; i++ {
		waitConverged(t, repls[i], prouter.Store(i), 15*time.Second)
		assertStateEqual(t, prouter.Store(i), rrouter.Store(i))
	}

	// The replica's status endpoint reports one status per shard.
	resp, err := http.Get(rts.URL + "/v1/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	var statuses []replication.Status
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(statuses) != shards {
		t.Fatalf("status reports %d shards, want %d", len(statuses), shards)
	}
	for i, st := range statuses {
		if st.Shard != i {
			t.Errorf("status[%d].Shard = %d", i, st.Shard)
		}
	}

	// Writes bounce with 503 and advertise the primary for client redirect.
	req, _ := http.NewRequest(http.MethodPut, rts.URL+"/v1/db/docs/d000",
		strings.NewReader(`{"_id":"d000","v":1}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("write on sharded replica: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(server.HeaderPrimary); got != pts.URL {
		t.Errorf("X-Quaestor-Primary = %q, want %q", got, pts.URL)
	}

	// Promote flips every shard follower; writes are accepted afterwards.
	resp, err = http.Post(rts.URL+"/v1/replication/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, rts.URL+"/v1/db/docs/zz-new",
		strings.NewReader(`{"_id":"zz-new","v":1}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("write after sharded promote: status %d, want 200", resp.StatusCode)
	}
}

// TestPromotedNodeStampsNoReplicaHeaders: a promoted shard is a primary
// again, so no response it answers may carry the replica annotation —
// record reads, queries and the EBF alike. A client would otherwise cache
// the new primary's answers as replica copies, pre-aged by the time since
// the failover. While one shard still follows, node-wide responses keep
// the annotation.
func TestPromotedNodeStampsNoReplicaHeaders(t *testing.T) {
	sp := startShardedPair(t, 2)
	for i, repl := range sp.repls {
		waitConverged(t, repl, sp.prouter.Store(i), 15*time.Second)
	}
	var onShard0 string
	for i := 0; i < 120 && onShard0 == ""; i++ {
		if id := fmt.Sprintf("d%03d", i); sp.rrouter.ShardFor(id) == 0 {
			onShard0 = id
		}
	}
	replicaHeader := func(path string) string {
		t.Helper()
		resp, err := http.Get(sp.rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if resp.Header.Get("X-Quaestor-Replica") == "" && resp.Header.Get("X-Quaestor-Staleness-Ms") != "" {
			t.Errorf("GET %s: staleness header without a replica state", path)
		}
		return resp.Header.Get("X-Quaestor-Replica")
	}
	promote := func(query string) {
		t.Helper()
		resp, err := http.Post(sp.rts.URL+"/v1/replication/promote"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promote%s: status %d", query, resp.StatusCode)
		}
	}
	record := "/v1/db/docs/" + onShard0

	for _, path := range []string{"/v1/db/docs", "/v1/ebf", record} {
		if got := replicaHeader(path); got != string(replication.StateStreaming) {
			t.Errorf("following: GET %s: X-Quaestor-Replica = %q, want %q", path, got, replication.StateStreaming)
		}
	}

	promote("?shard=0")
	if got := replicaHeader(record); got != "" {
		t.Errorf("shard 0 promoted: GET %s: X-Quaestor-Replica = %q, want none", record, got)
	}
	if got := replicaHeader("/v1/db/docs"); got != string(replication.StateStreaming) {
		t.Errorf("shard 1 still follows: query X-Quaestor-Replica = %q, want %q", got, replication.StateStreaming)
	}

	promote("")
	for _, path := range []string{"/v1/db/docs", "/v1/ebf", record} {
		if got := replicaHeader(path); got != "" {
			t.Errorf("all shards promoted: GET %s: X-Quaestor-Replica = %q, want none", path, got)
		}
	}
}
