package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"quaestor/internal/query"
)

// TestQueryPlanMetrics verifies query executions are attributed to the
// planner's access-path choice in Stats and the per-plan histograms.
func TestQueryPlanMetrics(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	insertPost(t, srv, "p1", "a", "b")
	insertPost(t, srv, "p2", "b")

	q := query.New("posts", query.Contains("tags", "a"))
	if _, err := srv.Query(q); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.PlanScans != 1 || st.PlanProbes != 0 {
		t.Fatalf("before index: stats = %+v", st)
	}

	if err := srv.CreateIndex("posts", "tags"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query(query.New("posts", query.Gt("rating", int64(1)))); err != nil {
		t.Fatal(err)
	}
	// rating is unindexed: that query scans.
	st := srv.Stats()
	if st.PlanProbes != 1 || st.PlanScans != 2 || st.PlanRanges != 0 {
		t.Fatalf("stats = %+v", st)
	}

	if err := srv.CreateIndex("posts", "rating"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query(query.New("posts", query.Gt("rating", int64(1)))); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.PlanRanges != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHTTPIndexEndpoint drives index administration over REST and checks
// plan counters surface in /v1/stats.
func TestHTTPIndexEndpoint(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		// Enough docs, over enough tags, that the probe estimate (docs per
		// distinct tag) beats the scan estimate on every shard.
		for i := 0; i < 10; i++ {
			insertPost(t, srv, fmt.Sprintf("p%d", i), fmt.Sprintf("t%d", i%5))
		}
		h := srv.Handler()

		do := func(method, path, body string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(method, path, strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}

		if rec := do(http.MethodPost, "/v1/indexes/posts", `{"path":"tags"}`); rec.Code != http.StatusCreated {
			t.Fatalf("create index: %d %s", rec.Code, rec.Body)
		}
		if rec := do(http.MethodPost, "/v1/indexes/posts", `{}`); rec.Code != http.StatusBadRequest {
			t.Fatalf("missing path must 400, got %d", rec.Code)
		}
		if rec := do(http.MethodPost, "/v1/indexes/nope", `{"path":"x"}`); rec.Code != http.StatusNotFound {
			t.Fatalf("unknown table must 404, got %d", rec.Code)
		}

		rec := do(http.MethodGet, "/v1/indexes/posts", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("list indexes: %d", rec.Code)
		}
		var list struct {
			Paths []string `json:"paths"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Paths) != 1 || list.Paths[0] != "tags" {
			t.Fatalf("paths = %v", list.Paths)
		}

		// A sargable query now routes through the probe path, visible in stats.
		if rec := do(http.MethodGet, `/v1/db/posts?q={"tags":{"$contains":"t1"}}`, ""); rec.Code != http.StatusOK {
			t.Fatalf("query: %d %s", rec.Code, rec.Body)
		}
		rec = do(http.MethodGet, "/v1/stats", "")
		var st Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.PlanProbes != 1 {
			t.Fatalf("stats = %+v, want one probe", st)
		}
	})
}

// TestIndexEndpointRequiresAdmin ensures index DDL sits behind the admin
// role once auth is enabled.
func TestIndexEndpointRequiresAdmin(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		srv.EnableAuth(&AuthConfig{
			Tokens:              map[string]Role{"w": RoleWriter, "adm": RoleAdmin},
			AllowAnonymousReads: true,
		})
		h := srv.Handler()

		req := httptest.NewRequest(http.MethodPost, "/v1/indexes/posts", strings.NewReader(`{"path":"tags"}`))
		req.Header.Set("Authorization", "Bearer w")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusForbidden {
			t.Fatalf("writer role must be forbidden, got %d", rec.Code)
		}

		req = httptest.NewRequest(http.MethodPost, "/v1/indexes/posts", strings.NewReader(`{"path":"tags"}`))
		req.Header.Set("Authorization", "Bearer adm")
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("admin create failed: %d %s", rec.Code, rec.Body)
		}
	})
}
