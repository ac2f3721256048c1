package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/store"
	"quaestor/internal/wal"
)

func newDurableTestServer(t *testing.T, shards int, dir string) *Server {
	t.Helper()
	// FsyncAlways acks synchronously, which keeps the WAL counters
	// deterministic for the assertions below.
	router, err := cluster.Open(cluster.Options{Shards: shards, Store: store.Options{DataDir: dir, Durability: store.Durability{Fsync: wal.FsyncAlways}}})
	if err != nil {
		t.Fatal(err)
	}
	return newServerOn(t, router, nil)
}

// TestStatsIncludesDurability checks /v1/stats grows the WAL/recovery
// section on durable stores and omits it on in-memory ones.
func TestStatsIncludesDurability(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newDurableTestServer(t, shards, t.TempDir())
		for i := 0; i < 5; i++ {
			insertPost(t, srv, "p"+string(rune('0'+i)), "x")
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("stats status %d", rec.Code)
		}
		var body StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Durability == nil {
			t.Fatal("durable server stats missing durability section")
		}
		if len(body.Cluster.Shards) != shards {
			t.Fatalf("cluster section has %d shards, want %d", len(body.Cluster.Shards), shards)
		}
		if !reflect.DeepEqual(body.Durability, body.Cluster.Shards[0].Durability) {
			t.Error("top-level durability section is not shard 0's")
		}
		total := body.Durability.WAL
		for _, sh := range body.Cluster.Shards[1:] {
			total.Appends += sh.Durability.WAL.Appends
		}
		if total.Appends < 5 || total.Segments == 0 {
			t.Errorf("wal stats = %+v", total)
		}

		mem := newTestServer(t, shards, nil)
		rec = httptest.NewRecorder()
		mem.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var memBody StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &memBody); err != nil {
			t.Fatal(err)
		}
		if memBody.Durability != nil {
			t.Error("in-memory server stats should omit the durability section")
		}
	})
}

// TestAdminSnapshotEndpoint drives POST /v1/admin/snapshot and verifies
// both the happy path and the in-memory 409.
func TestAdminSnapshotEndpoint(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newDurableTestServer(t, shards, t.TempDir())
		for i := 0; i < 10; i++ {
			if err := srv.Put("posts", document.New("k"+string(rune('0'+i)), map[string]any{"n": int64(i)})); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/snapshot", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("snapshot status %d: %s", rec.Code, rec.Body)
		}
		var infos []store.SnapshotInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
			t.Fatal(err)
		}
		if len(infos) != shards {
			t.Fatalf("snapshot answered %d infos, want one per shard (%d)", len(infos), shards)
		}
		var info store.SnapshotInfo
		for _, sh := range infos {
			info.Docs += sh.Docs
			info.Seq += sh.Seq
		}
		if info.Docs != 10 || info.Seq == 0 {
			t.Errorf("snapshot infos = %+v", infos)
		}

		rec = httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/admin/snapshot", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET snapshot status = %d, want 405", rec.Code)
		}

		mem := newTestServer(t, shards, nil)
		rec = httptest.NewRecorder()
		mem.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/snapshot", nil))
		if rec.Code != http.StatusConflict {
			t.Errorf("in-memory snapshot status = %d, want 409", rec.Code)
		}
	})
}

// TestServerSurvivesRestart exercises durability end-to-end through the
// middleware: writes via the server, restart, reads via a new server.
func TestServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(&store.Options{DataDir: dir, Durability: store.Durability{Fsync: wal.FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, nil)
	if err := db.CreateTable("posts"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Insert("posts", document.New("p1", map[string]any{"title": "hello"})); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"title": "edited"}}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	db.Close()

	db2, err := store.Open(&store.Options{DataDir: dir, Durability: store.Durability{Fsync: wal.FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(db2, nil)
	defer func() {
		srv2.Close()
		db2.Close()
	}()
	res, err := srv2.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Doc.Get("title"); got != "edited" {
		t.Errorf("title after restart = %v", got)
	}
	if res.Doc.Version != 2 {
		t.Errorf("version after restart = %d, want 2", res.Doc.Version)
	}
}
