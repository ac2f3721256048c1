package client

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quaestor/internal/cache"
	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
)

// stack is a full in-process deployment: origin, CDN tier, client.
type stack struct {
	db  *store.Store
	srv *server.Server
	cdn *cache.HTTPTier
}

func newStack(t *testing.T, srvOpts *server.Options) *stack {
	t.Helper()
	db := store.MustOpen(nil)
	srv := server.New(db, srvOpts)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	if err := db.CreateTable("posts"); err != nil {
		t.Fatal(err)
	}
	cdn := cache.NewHTTPTier("cdn", cache.InvalidationBased, srv.Handler(), 0)
	srv.AddPurger(server.PurgerFunc(func(path string) { cdn.Cache.Purge(path) }))
	return &stack{db: db, srv: srv, cdn: cdn}
}

func (s *stack) dial(t *testing.T, opts *Options) *Client {
	t.Helper()
	if opts == nil {
		opts = &Options{}
	}
	if opts.Transport == nil {
		opts.Transport = NewHandlerTransport(s.cdn)
	}
	c, err := Dial(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWritesKeepTheirConnection: every write reads its acknowledgement
// to the end before closing it, so a session on a one-connection
// transport makes all its writes over a single TCP connection.
func TestWritesKeepTheirConnection(t *testing.T) {
	s := newStack(t, nil)
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(s.srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := s.dial(t, &Options{Transport: tr, BaseURL: ts.URL, DisableEBF: true})
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("p%d", i)
		if err := c.Insert("posts", document.New(id, map[string]any{"n": int64(i)})); err != nil {
			t.Fatal(err)
		}
		if err := c.Put("posts", document.New(id, map[string]any{"n": int64(-i)})); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Update("posts", id, store.UpdateSpec{Inc: map[string]float64{"n": 1}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete("posts", id); err != nil {
			t.Fatal(err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("80 writes opened %d connections, want 1", n)
	}
}

func TestDialFetchesEBF(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	if c.Stats().EBFRefreshes != 1 {
		t.Errorf("EBF refreshes = %d", c.Stats().EBFRefreshes)
	}
	if c.EBFAge() < 0 {
		t.Error("negative EBF age")
	}
}

func TestInsertReadRoundTrip(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	doc := document.New("p1", map[string]any{"title": "hi", "tags": []any{"x"}})
	if err := c.Insert("posts", doc); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("title"); v != "hi" {
		t.Errorf("title = %v", v)
	}
}

// TestReadYourWrites: a session's read of its own write is answered by the
// origin, once, with the stored document; the copy it caches then serves
// the next read.
func TestReadYourWrites(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, &Options{RefreshInterval: time.Hour})
	if err := c.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	stored, err := s.db.Get("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	got, err := c.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("v"); v != int64(1) || got.Version != stored.Version {
		t.Errorf("read v=%v at version %d, want v=1 at the stored version %d", v, got.Version, stored.Version)
	}
	st := c.Stats()
	if n := st.NetworkRequests - before.NetworkRequests; n != 1 || st.Revalidations-before.Revalidations != 1 {
		t.Errorf("the read of the session's own write cost %d exchanges (%d revalidations), want one revalidation", n, st.Revalidations-before.Revalidations)
	}
	if _, err := c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if c.Stats().NetworkRequests != st.NetworkRequests {
		t.Error("the second read went to the network: the first did not cache the write")
	}
}

// TestReadAfterPutReturnsStoredVersion: a record put twice reads back as
// the version the store holds, not as the document the session sent.
func TestReadAfterPutReturnsStoredVersion(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	for i := 1; i <= 2; i++ {
		if err := c.Put("posts", document.New("p1", map[string]any{"v": i})); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("v"); v != int64(2) || got.Version != 2 {
		t.Errorf("read v=%v at version %d, want v=2 at the stored version 2", v, got.Version)
	}
}

func TestBrowserCacheHit(t *testing.T) {
	s := newStack(t, nil)
	writer := s.dial(t, nil)
	if err := writer.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	reader := s.dial(t, &Options{RefreshInterval: time.Hour})
	if _, err := reader.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	n := reader.Stats().NetworkRequests
	if _, err := reader.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	st := reader.Stats()
	if st.NetworkRequests != n {
		t.Error("second read should be a browser-cache hit")
	}
	if st.CacheHits != 1 {
		t.Errorf("cache hits = %d", st.CacheHits)
	}
}

func TestEBFDrivenRevalidation(t *testing.T) {
	s := newStack(t, nil)
	writer := s.dial(t, nil)
	if err := writer.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	reader := s.dial(t, &Options{RefreshInterval: time.Nanosecond}) // refresh every op
	if _, err := reader.Read("posts", "p1"); err != nil {           // cache it
		t.Fatal(err)
	}
	// Another client updates the record: the EBF flags it, the CDN is
	// purged.
	if _, err := writer.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"v": 2}}); err != nil {
		t.Fatal(err)
	}
	s.srv.InvaliDB().Quiesce(5 * time.Second)

	// The reader's next access refreshes the EBF, sees the flag, and
	// revalidates instead of serving its stale browser copy.
	got, err := reader.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("v"); v != int64(2) {
		t.Errorf("stale value served despite EBF: v = %v", v)
	}
	if reader.Stats().Revalidations == 0 {
		t.Error("no revalidation issued")
	}
}

func TestStaticTTLClientServesStale(t *testing.T) {
	// The straw-man client (no EBF) keeps serving its cached copy — this
	// is the contrast that motivates the EBF (Section 3).
	s := newStack(t, nil)
	writer := s.dial(t, nil)
	if err := writer.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	reader := s.dial(t, &Options{DisableEBF: true})
	if _, err := reader.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"v": 2}}); err != nil {
		t.Fatal(err)
	}
	s.srv.InvaliDB().Quiesce(5 * time.Second)
	got, err := reader.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("v"); v != int64(1) {
		t.Errorf("static-TTL client should still see the cached v=1, got %v", v)
	}
}

func TestStrongConsistencyBypassesCaches(t *testing.T) {
	s := newStack(t, nil)
	writer := s.dial(t, nil)
	if err := writer.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	reader := s.dial(t, &Options{RefreshInterval: time.Hour}) // stale EBF
	if _, err := reader.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"v": 2}}); err != nil {
		t.Fatal(err)
	}
	got, err := reader.ReadWith("posts", "p1", ReadOptions{Consistency: Strong})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("v"); v != int64(2) {
		t.Errorf("strong read returned stale v = %v", v)
	}
}

func TestQueryObjectListCachesMembers(t *testing.T) {
	s := newStack(t, &server.Options{Representation: server.RepAlwaysObjects})
	c := s.dial(t, &Options{RefreshInterval: time.Hour})
	for _, id := range []string{"a", "b", "c"} {
		if err := c.Insert("posts", document.New(id, map[string]any{"tags": []any{"x"}})); err != nil {
			t.Fatal(err)
		}
	}
	q := query.New("posts", query.Contains("tags", "x"))
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Representation != ttl.ObjectList || len(res.Docs) != 3 || res.RoundTrips != 1 {
		t.Fatalf("result = %+v", res)
	}
	// Members are individually cached: reading one is a local hit. (The
	// first read of a session's own write revalidates at the origin, so
	// read from a fresh client that wrote nothing.)
	c2 := s.dial(t, &Options{RefreshInterval: time.Hour})
	if _, err := c2.Query(q); err != nil {
		t.Fatal(err)
	}
	n := c2.Stats().NetworkRequests
	if _, err := c2.Read("posts", "a"); err != nil {
		t.Fatal(err)
	}
	if c2.Stats().NetworkRequests != n {
		t.Error("member read should hit the cache by side effect")
	}
}

func TestQueryIDListAssembly(t *testing.T) {
	s := newStack(t, &server.Options{Representation: server.RepAlwaysIDs})
	c := s.dial(t, &Options{RefreshInterval: time.Hour})
	for _, id := range []string{"a", "b"} {
		if err := c.Insert("posts", document.New(id, map[string]any{"tags": []any{"x"}})); err != nil {
			t.Fatal(err)
		}
	}
	q := query.New("posts", query.Contains("tags", "x"))
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Representation != ttl.IDList {
		t.Fatalf("rep = %v", res.Representation)
	}
	if len(res.Docs) != 2 || len(res.IDs) != 2 {
		t.Errorf("assembled %d docs / %d ids", len(res.Docs), len(res.IDs))
	}
	if res.RoundTrips != 3 { // 1 for the id list + 2 member fetches
		t.Errorf("round trips = %d", res.RoundTrips)
	}
}

func TestQueryCachedSecondRead(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, &Options{RefreshInterval: time.Hour})
	if err := c.Insert("posts", document.New("a", map[string]any{"tags": []any{"x"}})); err != nil {
		t.Fatal(err)
	}
	q := query.New("posts", query.Contains("tags", "x"))
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	n := c.Stats().NetworkRequests
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().NetworkRequests != n {
		t.Error("second query should be served locally")
	}
	if len(res.IDs) != 1 {
		t.Errorf("cached result ids = %v", res.IDs)
	}
}

func TestDeleteInvalidatesLocalCache(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, &Options{RefreshInterval: time.Hour})
	if err := c.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("posts", "p1"); err == nil {
		t.Error("read of deleted record should fail, not serve the cache")
	}
}

func TestQueryPathDeterministic(t *testing.T) {
	q1 := query.New("posts", query.AndOf(query.Contains("tags", "x"), query.Gt("rating", 3))).
		Sorted(query.Desc("rating")).Sliced(2, 5)
	q2 := query.New("posts", query.AndOf(query.Gt("rating", 3), query.Contains("tags", "x"))).
		Sorted(query.Desc("rating")).Sliced(2, 5)
	// Builder order differs, URL may differ — but both parse back to the
	// same canonical query key, and identical queries produce identical
	// URLs.
	if QueryPath(q1) != QueryPath(q1) {
		t.Error("QueryPath unstable")
	}
	p1, p2 := QueryPath(q1), QueryPath(q2)
	if !strings.Contains(p1, "sort=") || !strings.Contains(p1, "limit=5") || !strings.Contains(p1, "offset=2") {
		t.Errorf("path missing clauses: %s", p1)
	}
	// Both paths must resolve to the same canonical query at the server.
	for _, p := range []string{p1, p2} {
		u := strings.SplitN(p, "?", 2)
		vals := mustParseQuery(t, u[1])
		parsed, err := server.ParseQueryRequest("posts", vals)
		if err != nil {
			t.Fatal(err)
		}
		if parsed.Key() != q1.Key() {
			t.Errorf("URL %s parsed to key %s, want %s", p, parsed.Key(), q1.Key())
		}
	}
}

func TestCausalConsistencyRefreshesEBF(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, &Options{RefreshInterval: time.Hour})
	if err := c.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	// A read newer than the EBF followed by a causal read must refresh the
	// filter first.
	if _, err := c.ReadWith("posts", "p1", ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().EBFRefreshes
	if _, err := c.ReadWith("posts", "p1", ReadOptions{Consistency: Causal}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().EBFRefreshes != before+1 {
		t.Errorf("causal read did not refresh the EBF (refreshes %d -> %d)", before, c.Stats().EBFRefreshes)
	}
}

func TestErrorSurfaced(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	if _, err := c.Read("posts", "missing"); err == nil {
		t.Error("missing record read should error")
	}
	if err := c.CreateTable("newtable"); err != nil {
		t.Errorf("CreateTable failed: %v", err)
	}
	if err := c.Insert("ghost", document.New("x", nil)); err == nil {
		t.Error("insert into missing table should error")
	}
}

func mustParseQuery(t *testing.T, raw string) url.Values {
	t.Helper()
	vals, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestStatusErrorCarriesStatus: an error answer reaches the caller as a
// StatusError whose status can be tested, and whose text is unchanged.
func TestStatusErrorCarriesStatus(t *testing.T) {
	cases := []struct {
		status int
		body   string
		want   string
	}{
		{404, `{"error":"store: document not found: posts/x"}`, "client: server returned 404: store: document not found: posts/x"},
		{400, `{"error":""}`, "client: server returned 400"},
		{502, `bad gateway`, "client: server returned 502"},
		{500, `{"error":5}`, "client: server returned 500"},
	}
	for _, tc := range cases {
		err := decodeErrorBytes(tc.status, []byte(tc.body))
		if err.Error() != tc.want {
			t.Errorf("decodeErrorBytes(%d, %s) = %q, want %q", tc.status, tc.body, err, tc.want)
		}
		var se *StatusError
		if !errors.As(err, &se) || se.Status != tc.status {
			t.Errorf("decodeErrorBytes(%d, %s) = %#v, want a StatusError with that status", tc.status, tc.body, err)
		}
	}

	s := newStack(t, nil)
	c := s.dial(t, nil)
	_, err := c.Read("posts", "missing")
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Errorf("missing record = %v, want a 404 StatusError", err)
	}
}
