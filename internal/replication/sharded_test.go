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
	"strings"
	"testing"
	"time"

	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/replication"
	"quaestor/internal/server"
	"quaestor/internal/testutil"
)

func TestShardedReplicationPerShardStreams(t *testing.T) {
	const shards = 2
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
