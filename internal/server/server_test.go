package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/ttl"
)

// newTestServer fronts an in-memory cluster of the given shard count with
// a "posts" table.
func newTestServer(t *testing.T, shards int, opts *Options) *Server {
	t.Helper()
	return newServerOn(t, cluster.MustOpen(cluster.Options{Shards: shards}), opts)
}

func newServerOn(t *testing.T, router *cluster.Router, opts *Options) *Server {
	t.Helper()
	srv := NewCluster(router, opts)
	t.Cleanup(func() {
		srv.Close()
		router.Close()
	})
	if err := router.CreateTable("posts"); err != nil {
		t.Fatal(err)
	}
	return srv
}

// forShardCounts runs an admin-surface test against the default 1-shard
// node and a 3-shard one: the control plane has one shape at every width.
func forShardCounts(t *testing.T, test func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { test(t, shards) })
	}
}

func insertPost(t *testing.T, srv *Server, id string, tags ...string) {
	t.Helper()
	arr := make([]any, len(tags))
	for i, tg := range tags {
		arr[i] = tg
	}
	if err := srv.Insert("posts", document.New(id, map[string]any{"tags": arr, "rating": int64(len(id))})); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestReadAndTTLReporting(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	insertPost(t, srv, "p1", "x")
	res, err := srv.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Doc.ID != "p1" || res.TTL <= 0 || res.ETag == "" {
		t.Errorf("read result = %+v", res)
	}
	// The issued TTL must be registered with the EBF: a write now flags it.
	if !srv.coh.ReportWrite(RecordKey("posts", "p1")) {
		t.Error("EBF did not track the issued record TTL")
	}
}

func TestQueryCachesAndActivates(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	insertPost(t, srv, "p1", "x")
	insertPost(t, srv, "p2", "x")
	q := query.New("posts", query.Contains("tags", "x"))
	res, err := srv.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cacheable || res.TTL <= 0 {
		t.Errorf("query should be cacheable: %+v", res)
	}
	if len(res.IDs) != 2 {
		t.Errorf("IDs = %v", res.IDs)
	}
	if srv.InvaliDB().ActiveQueries() != 1 {
		t.Errorf("active queries = %d", srv.InvaliDB().ActiveQueries())
	}
	// Second query reuses the activation.
	if _, err := srv.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().QueryActivations; got != 1 {
		t.Errorf("activations = %d", got)
	}
}

func TestInvalidationPurgesAndFeedsEWMA(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	insertPost(t, srv, "p1", "x")

	var mu sync.Mutex
	purged := map[string]int{}
	srv.AddPurger(PurgerFunc(func(path string) {
		mu.Lock()
		purged[path]++
		mu.Unlock()
	}))

	q := query.New("posts", query.Contains("tags", "x"))
	if _, err := srv.query(q, "/v1/db/posts?q=x"); err != nil {
		t.Fatal(err)
	}

	// A matching insert invalidates the cached query.
	insertPost(t, srv, "p2", "x")
	srv.InvaliDB().Quiesce(5 * time.Second)
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return purged["/v1/db/posts?q=x"] >= 1
	})
	// The EWMA got its first actual-TTL sample.
	if _, ok := srv.Estimator().EstimateSnapshot(q.Key()); !ok {
		t.Error("invalidation did not feed the estimator")
	}
	// The record write also purged the record path (the insert of p2 had
	// no prior read, so only the query purge plus possibly p1's path).
	if srv.Stats().Invalidations == 0 {
		t.Error("no invalidations recorded")
	}
}

// TestSettleReturnsOnceInvalidationsAreHandled: when Settle returns after
// a write, InvaliDB's notification for it has been handled — the query is
// flagged in the EBF, its purge issued and the invalidation counted —
// with no further waiting, write after write.
func TestSettleReturnsOnceInvalidationsAreHandled(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	var mu sync.Mutex
	purged := map[string]bool{}
	srv.AddPurger(PurgerFunc(func(path string) {
		mu.Lock()
		purged[path] = true
		mu.Unlock()
	}))
	for i := 0; i < 200; i++ {
		tag, path := fmt.Sprintf("t%d", i), fmt.Sprintf("/v1/db/posts?q=t%d", i)
		q := query.New("posts", query.Contains("tags", tag))
		if _, err := srv.query(q, path); err != nil {
			t.Fatal(err)
		}
		insertPost(t, srv, fmt.Sprintf("p%d", i), tag)
		if !srv.Settle(10 * time.Second) {
			t.Fatalf("write %d: the pipeline did not settle", i)
		}
		mu.Lock()
		done := purged[path]
		mu.Unlock()
		if !done || !srv.EBFSnapshot().Contains(q.Key()) || srv.Stats().Invalidations != uint64(i+1) {
			t.Fatalf("write %d: settled before its invalidation was handled (purged %v, flagged %v, invalidations %d)",
				i, done, srv.EBFSnapshot().Contains(q.Key()), srv.Stats().Invalidations)
		}
	}
}

func TestUncachedModeIssuesNoTTLs(t *testing.T) {
	srv := newTestServer(t, 1, &Options{Mode: ModeUncached})
	insertPost(t, srv, "p1", "x")
	res, err := srv.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if res.TTL != 0 {
		t.Errorf("uncached mode issued TTL %v", res.TTL)
	}
	qres, err := srv.Query(query.New("posts", query.Contains("tags", "x")))
	if err != nil {
		t.Fatal(err)
	}
	if qres.Cacheable {
		t.Error("uncached mode produced a cacheable query")
	}
	if srv.InvaliDB().ActiveQueries() != 0 {
		t.Error("uncached mode should not register queries")
	}
}

func TestCacheControlPerMode(t *testing.T) {
	cases := []struct {
		mode    CacheMode
		browser bool
		cdn     bool
	}{
		{ModeFull, true, true},
		{ModeCDNOnly, false, true},
		{ModeClientOnly, true, false},
		{ModeUncached, false, false},
	}
	for _, tc := range cases {
		srv := newTestServer(t, 1, &Options{Mode: tc.mode})
		b, c := srv.CacheControl(time.Minute)
		if (b > 0) != tc.browser || (c > 0) != tc.cdn {
			t.Errorf("%v: browser=%v cdn=%v", tc.mode, b, c)
		}
		if srv.Mode() != tc.mode {
			t.Errorf("mode = %v", srv.Mode())
		}
	}
}

func TestRepresentationPolicies(t *testing.T) {
	forced := newTestServer(t, 1, &Options{Representation: RepAlwaysIDs})
	insertPost(t, forced, "p1", "x")
	res, err := forced.Query(query.New("posts", query.Contains("tags", "x")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Representation != ttl.IDList {
		t.Errorf("forced id-list, got %v", res.Representation)
	}

	obj := newTestServer(t, 1, &Options{Representation: RepAlwaysObjects})
	insertPost(t, obj, "p1", "x")
	res, err = obj.Query(query.New("posts", query.Contains("tags", "x")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Representation != ttl.ObjectList {
		t.Errorf("forced object-list, got %v", res.Representation)
	}
}

func TestAdmissionRejectsAtCapacity(t *testing.T) {
	srv := newTestServer(t, 1, &Options{InvaliDB: &invalidbCfg1})
	insertPost(t, srv, "p1", "x", "y")
	q1 := query.New("posts", query.Contains("tags", "x"))
	q2 := query.New("posts", query.Contains("tags", "y"))
	r1, err := srv.Query(q1)
	if err != nil || !r1.Cacheable {
		t.Fatalf("first query should be admitted: %+v %v", r1, err)
	}
	// Make q1 valuable so q2 cannot displace it.
	for i := 0; i < 5; i++ {
		if _, err := srv.Query(q1); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := srv.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cacheable {
		t.Error("query beyond capacity should be served uncacheable")
	}
	if srv.Stats().RejectedQueries == 0 {
		t.Error("rejection not counted")
	}
}

// invalidbCfg1 caps InvaliDB at one active query.
var invalidbCfg1 = invalidbConfig1()

func TestHTTPCRUDAndQuery(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		h := srv.Handler()

		do := func(method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
			var rdr *bytes.Reader
			if body != "" {
				rdr = bytes.NewReader([]byte(body))
			} else {
				rdr = bytes.NewReader(nil)
			}
			req := httptest.NewRequest(method, path, rdr)
			for k, v := range hdr {
				req.Header.Set(k, v)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}

		// Create table via HTTP.
		if rec := do(http.MethodPost, "/v1/tables/users", "", nil); rec.Code != http.StatusCreated {
			t.Fatalf("create table = %d", rec.Code)
		}
		// Insert.
		if rec := do(http.MethodPost, "/v1/db/posts", `{"_id":"p1","tags":["x"],"rating":5}`, nil); rec.Code != http.StatusCreated {
			t.Fatalf("insert = %d %s", rec.Code, rec.Body.String())
		}
		// Read with caching headers.
		rec := do(http.MethodGet, "/v1/db/posts/p1", "", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("read = %d", rec.Code)
		}
		if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "max-age=") {
			t.Errorf("Cache-Control = %q", cc)
		}
		etag := rec.Header().Get("ETag")
		if etag == "" {
			t.Fatal("missing ETag")
		}
		// Conditional read -> 304.
		if rec := do(http.MethodGet, "/v1/db/posts/p1", "", map[string]string{"If-None-Match": etag}); rec.Code != http.StatusNotModified {
			t.Errorf("conditional read = %d", rec.Code)
		}
		// Patch.
		rec = do(http.MethodPatch, "/v1/db/posts/p1", `{"Set":{"rating":9}}`, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("patch = %d %s", rec.Code, rec.Body.String())
		}
		var updated document.Document
		if err := json.Unmarshal(rec.Body.Bytes(), &updated); err != nil {
			t.Fatal(err)
		}
		if v, _ := updated.Get("rating"); v != int64(9) {
			t.Errorf("patched rating = %v", v)
		}
		// Put (upsert).
		if rec := do(http.MethodPut, "/v1/db/posts/p2", `{"tags":["x"]}`, nil); rec.Code != http.StatusOK {
			t.Fatalf("put = %d", rec.Code)
		}
		// Query.
		rec = do(http.MethodGet, "/v1/db/posts?q="+`{"tags":{"$contains":"x"}}`, "", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("query = %d %s", rec.Code, rec.Body.String())
		}
		var qr QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Count != 2 {
			t.Errorf("query count = %d", qr.Count)
		}
		if key := rec.Header().Get(HeaderKey); key == "" {
			t.Error("missing X-Quaestor-Key")
		}
		// Delete.
		if rec := do(http.MethodDelete, "/v1/db/posts/p1", "", nil); rec.Code != http.StatusNoContent {
			t.Errorf("delete = %d", rec.Code)
		}
		// 404 paths.
		if rec := do(http.MethodGet, "/v1/db/posts/missing", "", nil); rec.Code != http.StatusNotFound {
			t.Errorf("missing read = %d", rec.Code)
		}
		if rec := do(http.MethodGet, "/v1/db/ghost-table?q={}", "", nil); rec.Code != http.StatusNotFound {
			t.Errorf("missing table query = %d", rec.Code)
		}
		// Invalid filter -> 400.
		if rec := do(http.MethodGet, "/v1/db/posts?q=not-json", "", nil); rec.Code != http.StatusBadRequest {
			t.Errorf("bad filter = %d", rec.Code)
		}
		// Duplicate insert -> 409.
		if rec := do(http.MethodPost, "/v1/db/posts", `{"_id":"p2"}`, nil); rec.Code != http.StatusConflict {
			t.Errorf("duplicate insert = %d", rec.Code)
		}
		// Stats endpoint.
		if rec := do(http.MethodGet, "/v1/stats", "", nil); rec.Code != http.StatusOK {
			t.Errorf("stats = %d", rec.Code)
		}
	})
}

func TestHTTPEBFEndpoint(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/ebf", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("EBF = %d", rec.Code)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("the EBF itself must never be cached: %q", cc)
	}
	var body EBFResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Filter == "" || body.GeneratedAt == 0 {
		t.Errorf("EBF body = %+v", body)
	}
}

func TestParseQueryRequest(t *testing.T) {
	q, err := ParseQueryRequest("posts", mustValues("q="+`{"a":1}`+"&sort=-rating,title&offset=5&limit=10"))
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "posts" || len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Path != "title" {
		t.Errorf("parsed query = %+v", q)
	}
	if q.Offset != 5 || q.Limit != 10 {
		t.Errorf("window = %d,%d", q.Offset, q.Limit)
	}
	if _, err := ParseQueryRequest("posts", mustValues("offset=-1")); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := ParseQueryRequest("posts", mustValues("limit=x")); err == nil {
		t.Error("non-numeric limit accepted")
	}
}

// TestQueryFilterLimitsAre400: a $in list of query.MaxInValues values and
// a filter nested query.MaxPredicateDepth deep are served; one more value
// or level is a 400 whose message names the limit.
func TestQueryFilterLimitsAre400(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	insertPost(t, srv, "p1", "x")
	h := srv.Handler()
	inList := func(n int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprint(i)
		}
		return `{"rating": {"$in": [` + strings.Join(vals, ",") + `]}}`
	}
	nested := func(n int) string {
		return strings.Repeat(`{"$not": `, n) + `{"rating": 1}` + strings.Repeat(`}`, n)
	}
	for _, c := range []struct {
		name     string
		at, over string
		limit    int
	}{
		{"$in", inList(query.MaxInValues), inList(query.MaxInValues + 1), query.MaxInValues},
		{"depth", nested(query.MaxPredicateDepth), nested(query.MaxPredicateDepth + 1), query.MaxPredicateDepth},
	} {
		for _, f := range []struct {
			filter string
			code   int
		}{{c.at, http.StatusOK}, {c.over, http.StatusBadRequest}} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/db/posts?"+url.Values{"q": {f.filter}}.Encode(), nil))
			if rec.Code != f.code {
				t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, f.code, rec.Body)
			}
			if f.code == http.StatusBadRequest && !strings.Contains(rec.Body.String(), fmt.Sprintf("the limit is %d", c.limit)) {
				t.Errorf("%s: 400 body %q does not name the limit %d", c.name, rec.Body, c.limit)
			}
		}
	}
}
