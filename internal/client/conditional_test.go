package client

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/ebf"
	"quaestor/internal/query"
	"quaestor/internal/server"
	"quaestor/internal/store"
)

// testClock is a settable clock shared by origin and SDK, so TTLs and the
// EBF refresh interval expire when the test says so.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// exchange is what the wire saw of one data request.
type exchange struct {
	path        string
	ifNoneMatch string
	noCache     bool
	status      int
}

// wire is a real HTTP origin (httptest.Server) that records every
// /v1/db exchange; front, when set, sits before the origin handler like a
// cache tier would.
type wire struct {
	clk *testClock
	db  *store.Store
	srv *server.Server
	ts  *httptest.Server

	mu    sync.Mutex
	seen  []exchange
	front func(w http.ResponseWriter, r *http.Request) bool // true = answered
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func newWire(t testing.TB) *wire { return newWireWith(t, server.Options{}) }

// newWireWith is newWire with the origin's estimator, filter or InvaliDB
// tuned; the clock is the wire's.
func newWireWith(t testing.TB, opts server.Options) *wire {
	t.Helper()
	db := store.MustOpen(nil)
	w := &wire{clk: &testClock{now: time.Unix(1700000000, 0)}, db: db}
	opts.Clock = w.clk.Now
	w.srv = server.New(db, &opts)
	origin := w.srv.Handler()
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: rw, status: http.StatusOK}
		w.mu.Lock()
		front := w.front
		w.mu.Unlock()
		if front == nil || !front(sw, r) {
			origin.ServeHTTP(sw, r)
		}
		if strings.HasPrefix(r.URL.Path, "/v1/db/") {
			w.mu.Lock()
			w.seen = append(w.seen, exchange{
				path:        r.URL.Path,
				ifNoneMatch: r.Header.Get("If-None-Match"),
				noCache:     r.Header.Get("Cache-Control") == "no-cache",
				status:      sw.status,
			})
			w.mu.Unlock()
		}
	}))
	t.Cleanup(func() {
		w.ts.Close()
		w.srv.Close()
		db.Close()
	})
	for _, table := range []string{"posts", "users"} {
		if err := db.CreateTable(table); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func (w *wire) dial(t *testing.T) *Client {
	t.Helper()
	c, err := Dial(&Options{BaseURL: w.ts.URL, Transport: w.ts.Client().Transport, Clock: w.clk.Now, RefreshInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// last returns the newest recorded exchange.
func (w *wire) last(t *testing.T) exchange {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.seen) == 0 {
		t.Fatal("no exchange recorded")
	}
	return w.seen[len(w.seen)-1]
}

func (w *wire) insert(t testing.TB, table, id string, tags ...any) {
	t.Helper()
	if err := w.srv.Insert(table, document.New(id, map[string]any{"tags": tags, "n": int64(0)})); err != nil {
		t.Fatal(err)
	}
}

// TestRecordRevalidationIsConditional: an expired refetch and an
// EBF-triggered revalidation both carry the cached copy's ETag; an
// unchanged record comes back as a bodiless 304 that is counted on both
// sides and renews the cache entry, a changed one as a 200.
func TestRecordRevalidationIsConditional(t *testing.T) {
	w := newWire(t)
	w.insert(t, "posts", "p1")
	c := w.dial(t)

	if _, err := c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if ex := w.last(t); ex.ifNoneMatch != "" || ex.status != http.StatusOK {
		t.Fatalf("first read: %+v, want an unconditional 200", ex)
	}

	// Expired refetch of an unchanged record.
	w.clk.Advance(2 * time.Hour)
	doc, err := c.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if ex := w.last(t); ex.ifNoneMatch != `"v1"` || ex.status != http.StatusNotModified || ex.noCache {
		t.Errorf("expired refetch: %+v, want a plain conditional GET answered 304", ex)
	}
	if doc.ID != "p1" || doc.Version != 1 {
		t.Errorf("304 returned %s v%d", doc.ID, doc.Version)
	}
	if got, srvGot := c.Stats().NotModified, w.srv.Stats().Revalidations; got != 1 || srvGot != 1 {
		t.Errorf("NotModified = %d, server Revalidations = %d, want 1 and 1", got, srvGot)
	}
	before := c.Stats().NetworkRequests
	if _, err := c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if c.Stats().NetworkRequests != before {
		t.Error("the 304 did not renew the cache entry: the next read went to the network")
	}

	// The record changes: the EBF flags it, the revalidation is conditional
	// on the old copy and brings the new body.
	if _, err := w.srv.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"n": 1}}); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(2 * time.Second) // past Δ: the next op refreshes the filter
	if doc, err = c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if ex := w.last(t); ex.ifNoneMatch != `"v1"` || !ex.noCache || ex.status != http.StatusOK {
		t.Errorf("revalidation of a changed record: %+v, want a no-cache conditional GET answered 200", ex)
	}
	if doc.Version != 2 {
		t.Errorf("revalidation returned v%d, want v2", doc.Version)
	}

	// Still flagged after the next filter refresh (the old TTL has not run
	// out), but the origin says nothing was flagged since this session
	// revalidated: the copy it holds is served, at no exchange.
	w.clk.Advance(2 * time.Second)
	before = c.Stats().NetworkRequests
	if doc, err = c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if got := st.NetworkRequests - before; got != 1 || st.RenewalsUncovered != 0 {
		t.Errorf("read of a revalidated, still flagged record cost %d requests (%d uncovered renewals), want the EBF renewal only", got, st.RenewalsUncovered)
	}
	if doc.Version != 2 || st.NotModified != 1 || st.WhitelistCarried != 1 {
		t.Errorf("got v%d, NotModified = %d, WhitelistCarried = %d", doc.Version, st.NotModified, st.WhitelistCarried)
	}
}

// TestRecreatedRecordIsNeverValidated: a record deleted and re-created
// under the same id is a different record, and no validator the SDK holds
// for the old one may match it — neither on an EBF-triggered revalidation
// (the Δ bound) nor on a plain expired refetch, for the record or for a
// query whose result contains it. Versions continue from the tombstone,
// which is what keeps "v<version>" unambiguous.
func TestRecreatedRecordIsNeverValidated(t *testing.T) {
	recreate := func(t *testing.T, w *wire) {
		t.Helper()
		if err := w.srv.Delete("posts", "p1"); err != nil {
			t.Fatal(err)
		}
		if err := w.srv.Insert("posts", document.New("p1", map[string]any{"tags": []any{"x"}, "body": "B"})); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		wait    time.Duration
		noCache bool
	}{
		{"ebf revalidation", 2 * time.Second, true}, // past Δ, TTL still running
		{"expired refetch", 2 * time.Hour, false},   // past every TTL: the filter has forgotten the write
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWire(t)
			if err := w.srv.Insert("posts", document.New("p1", map[string]any{"tags": []any{"x"}, "body": "A"})); err != nil {
				t.Fatal(err)
			}
			c := w.dial(t)
			q := query.New("posts", query.Contains("tags", "x"))
			if _, err := c.Read("posts", "p1"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Query(q); err != nil {
				t.Fatal(err)
			}
			recreate(t, w)
			// InvaliDB flags the query asynchronously.
			for deadline := time.Now().Add(5 * time.Second); !w.srv.EBFSnapshot().Contains(q.Key()); {
				if time.Now().After(deadline) {
					t.Fatal("the query was never invalidated")
				}
				time.Sleep(time.Millisecond)
			}
			w.clk.Advance(tc.wait)

			doc, err := c.Read("posts", "p1")
			if err != nil {
				t.Fatal(err)
			}
			if ex := w.last(t); ex.ifNoneMatch != `"v1"` || ex.noCache != tc.noCache || ex.status != http.StatusOK {
				t.Errorf("record refetch: %+v, want a conditional GET (no-cache=%v) answered 200", ex, tc.noCache)
			}
			if body, _ := doc.Get("body"); body != "B" {
				t.Errorf("record read returned body %v, want B (the re-created record)", body)
			}
			res, err := c.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if ex := w.last(t); ex.path != "/v1/db/posts" || ex.ifNoneMatch == "" || ex.status != http.StatusOK {
				t.Errorf("query refetch: %+v, want a conditional GET answered 200", ex)
			}
			if body, _ := res.Docs[0].Get("body"); len(res.Docs) != 1 || body != "B" {
				t.Errorf("query returned %d docs, body %v, want the re-created record", len(res.Docs), body)
			}
			if n := c.Stats().NotModified; n != 0 {
				t.Errorf("NotModified = %d, want 0", n)
			}
		})
	}
}

// TestMonotonicFallbackRefetchesUnconditionally: a lagging tier validates
// the session's old copy with a 304 although the session has already seen a
// newer version. The fallback must drop the validator — a second 304 would
// hand back the same old copy — and reach the origin.
func TestMonotonicFallbackRefetchesUnconditionally(t *testing.T) {
	w := newWire(t)
	w.insert(t, "posts", "p1")
	c := w.dial(t)
	if _, err := c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.srv.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"n": 1}}); err != nil {
		t.Fatal(err)
	}
	// The session saw v2 some other way (e.g. as a member of an uncacheable
	// query result); its cached copy is still v1.
	c.observeRead(server.RecordKey("posts", "p1"), 2)

	w.setFront(func(rw http.ResponseWriter, r *http.Request) bool {
		if r.Header.Get("Cache-Control") == "no-cache" || r.Header.Get("If-None-Match") != `"v1"` {
			return false
		}
		rw.Header().Set("ETag", `"v1"`)
		rw.Header().Set("Cache-Control", "public, max-age=60")
		rw.WriteHeader(http.StatusNotModified)
		return true
	})

	doc, err := c.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != 2 {
		t.Errorf("read returned v%d, want v2 (monotonic reads)", doc.Version)
	}
	w.mu.Lock()
	seen := append([]exchange(nil), w.seen...)
	w.mu.Unlock()
	if len(seen) < 2 {
		t.Fatalf("exchanges: %+v", seen)
	}
	stale, refetch := seen[len(seen)-2], seen[len(seen)-1]
	if stale.status != http.StatusNotModified || stale.ifNoneMatch != `"v1"` {
		t.Errorf("first attempt: %+v, want the tier's 304 for v1", stale)
	}
	if refetch.ifNoneMatch != "" || !refetch.noCache || refetch.status != http.StatusOK {
		t.Errorf("fallback: %+v, want an unconditional no-cache GET answered 200", refetch)
	}
	if st := c.Stats(); st.MonotonicRetries != 1 || st.NotModified != 1 {
		t.Errorf("MonotonicRetries = %d, NotModified = %d, want 1 and 1", st.MonotonicRetries, st.NotModified)
	}
}

// TestQueryRevalidationIsConditional: an expired query refetch carries the
// result's ETag; a 304 is counted, returns the cached result, renews the
// query's entry and — as a 200 would — its members' entries; a changed
// result comes back as a 200.
func TestQueryRevalidationIsConditional(t *testing.T) {
	w := newWire(t)
	w.insert(t, "posts", "p1", "x")
	w.insert(t, "posts", "p2", "x")
	w.insert(t, "posts", "p3", "y")
	c := w.dial(t)
	q := query.New("posts", query.Contains("tags", "x"))

	first, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex := w.last(t); ex.ifNoneMatch != "" || ex.status != http.StatusOK || len(first.Docs) != 2 {
		t.Fatalf("first query: %+v, %d docs", ex, len(first.Docs))
	}

	w.clk.Advance(2 * time.Hour)
	again, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex := w.last(t); ex.ifNoneMatch == "" || ex.status != http.StatusNotModified {
		t.Errorf("expired query refetch: %+v, want a conditional GET answered 304", ex)
	}
	if got, srvGot := c.Stats().NotModified, w.srv.Stats().Revalidations; got != 1 || srvGot != 1 {
		t.Errorf("NotModified = %d, server Revalidations = %d, want 1 and 1", got, srvGot)
	}
	if again.RoundTrips != 1 || len(again.Docs) != 2 || again.Representation != first.Representation {
		t.Errorf("304 result: %+v", again)
	}
	for i, d := range again.Docs {
		a, _ := d.MarshalJSON()
		b, _ := first.Docs[i].MarshalJSON()
		if !bytes.Equal(a, b) {
			t.Errorf("304 result doc %d = %s, want %s", i, a, b)
		}
	}
	before := c.Stats().NetworkRequests
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	for _, id := range again.IDs {
		if _, err := c.Read("posts", id); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().NetworkRequests - before; got != 0 {
		t.Errorf("after the 304 the query and its %d members cost %d network requests, want 0 (entries renewed)", len(again.IDs), got)
	}

	// The result changes: same validator, full answer.
	if _, err := w.srv.Update("posts", "p2", store.UpdateSpec{Set: map[string]any{"n": 5}}); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(2 * time.Hour)
	changed, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex := w.last(t); ex.ifNoneMatch == "" || ex.status != http.StatusOK {
		t.Errorf("refetch of a changed result: %+v, want a conditional GET answered 200", ex)
	}
	if n, _ := changed.Docs[1].Get("n"); n != int64(5) || c.Stats().NotModified != 1 {
		t.Errorf("changed result: p2.n = %v, NotModified = %d", n, c.Stats().NotModified)
	}
}

// TestFetchEBFRoundTrip loads the coherence signal over real HTTP — pooled
// gzip body, Content-Length — and checks the SDK reconstructs exactly the
// origin's filter, aggregate and per table.
func TestFetchEBFRoundTrip(t *testing.T) {
	w := newWire(t)
	for i := 0; i < 300; i++ {
		for _, table := range []string{"posts", "users"} {
			id := strconv.Itoa(i)
			w.insert(t, table, id)
			if _, err := w.srv.Read(table, id); err != nil {
				t.Fatal(err)
			}
			if i%3 > 0 {
				if _, err := w.srv.Update(table, id, store.UpdateSpec{Set: map[string]any{"n": 1}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	c := w.dial(t)
	want := w.srv.EBFSnapshot()
	if want.Entries != 400 {
		t.Fatalf("origin filter holds %d entries, want 400", want.Entries)
	}
	got, err := c.fetchEBF(w.ts.URL, "", ebf.Position{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Filter.Marshal(), want.Filter.Marshal()) || got.Entries != want.Entries || !got.GeneratedAt.Equal(want.GeneratedAt) {
		t.Errorf("aggregate filter did not round-trip (entries %d vs %d, generated %v vs %v)", got.Entries, want.Entries, got.GeneratedAt, want.GeneratedAt)
	}
	posts, err := c.fetchEBF(w.ts.URL, "posts", ebf.Position{})
	if err != nil {
		t.Fatal(err)
	}
	if posts.Entries != 200 || !posts.Contains(server.RecordKey("posts", "1")) || posts.Filter.PopCount() >= got.Filter.PopCount() {
		t.Errorf("posts partition: %d entries, %d bits set (aggregate %d)", posts.Entries, posts.Filter.PopCount(), got.Filter.PopCount())
	}
}
