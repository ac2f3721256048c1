package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/store"
)

// gapServer fronts a 1-shard store whose change ring holds ring events,
// with a clock that can be armed to run writes inside a query's activation
// gap: the first clock call after the query's evaluation, which precedes
// its activation, runs them.
type gapServer struct {
	*Server
	fireAt atomic.Uint64 // fire once s.queries reaches this count; 0 = disarmed
	writes atomic.Pointer[func()]
}

func newGapServer(t *testing.T, ring int) *gapServer {
	g := &gapServer{}
	var srv atomic.Pointer[Server]
	clock := func() time.Time {
		s := srv.Load()
		if n := g.fireAt.Load(); n > 0 && s != nil && s.queries.Load() >= n && g.fireAt.CompareAndSwap(n, 0) {
			(*g.writes.Load())()
		}
		return time.Now()
	}
	router := cluster.MustOpen(cluster.Options{Shards: 1, Store: store.Options{ChangeBuffer: ring}})
	g.Server = newServerOn(t, router, &Options{Clock: clock})
	srv.Store(g.Server)
	return g
}

// queryWithGap serves tag's query over HTTP while writes run between its
// evaluation and its activation.
func (g *gapServer) queryWithGap(t *testing.T, tag string, writes func()) *httptest.ResponseRecorder {
	t.Helper()
	g.writes.Store(&writes)
	g.fireAt.Store(g.queries.Load() + 1)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/v1/db/posts?q="+url.QueryEscape(fmt.Sprintf(`{"tags":{"$contains":%q}}`, tag)), nil))
	if g.fireAt.Load() != 0 {
		t.Fatal("the gap writes never ran")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("query %s: status %d: %s", tag, rec.Code, rec.Body)
	}
	return rec
}

// TestActivationReplayGap: a query whose activation gap the change ring
// still covers is installed with the gap replayed, so a matching write
// inside the gap invalidates it; one whose gap the ring no longer covers
// is answered uncached and never installed in InvaliDB — never cached on
// a partial replay that would miss its invalidations.
func TestActivationReplayGap(t *testing.T) {
	const ring = 8
	srv := newGapServer(t, ring)
	insertPost(t, srv.Server, "p1", "covered", "overrun")
	settle(t, srv.Server)

	// Covered: one matching write inside the gap.
	before := srv.Stats()
	rec := srv.queryWithGap(t, "covered", func() { insertPost(t, srv.Server, "p2", "covered") })
	if cc := rec.Header().Get("Cache-Control"); cc == "no-store" {
		t.Fatalf("covered gap: Cache-Control %q, want cacheable", cc)
	}
	if got := srv.InvaliDB().ActiveQueries(); got != 1 {
		t.Fatalf("covered gap: %d queries in InvaliDB, want 1", got)
	}
	settle(t, srv.Server)
	if st := srv.Stats(); st.Invalidations == before.Invalidations {
		t.Error("the write inside a covered gap did not invalidate the query")
	}

	// Overrun: more non-matching writes inside the gap than the ring holds.
	before = srv.Stats()
	overrun := tagQuery("overrun")
	rec = srv.queryWithGap(t, "overrun", func() {
		for i := 0; i <= ring; i++ {
			insertPost(t, srv.Server, fmt.Sprintf("f%d", i), "filler")
		}
	})
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("overrun gap: Cache-Control %q, want no-store", cc)
	}
	if !strings.Contains(rec.Body.String(), `"p1"`) {
		t.Errorf("overrun gap: the result is still served, got %s", rec.Body)
	}
	st := srv.Stats()
	if st.RejectedQueries != before.RejectedQueries+1 {
		t.Errorf("RejectedQueries = %d, want %d", st.RejectedQueries, before.RejectedQueries+1)
	}
	if st.QueryActivations != before.QueryActivations {
		t.Errorf("QueryActivations moved from %d to %d on a refused activation", before.QueryActivations, st.QueryActivations)
	}
	if got := srv.InvaliDB().ActiveQueries(); got != 1 {
		t.Errorf("overrun gap: %d queries in InvaliDB, want 1 (the covered one)", got)
	}
	if _, ok := srv.ActiveList().Get(overrun.Key()); ok {
		t.Error("overrun gap: the query is resident in the active list")
	}

	// The refusal leaves nothing behind: without a gap the query is cached.
	res, err := srv.Query(overrun)
	if err != nil || !res.Cacheable {
		t.Fatalf("re-query without a gap: %+v, %v; want cacheable", res, err)
	}
}

// TestQueryWindowOverflowKeepsTableWritable: an offset/limit pair whose
// sum overflows int is refused with 400 on every query path — it used to
// panic inside the executor while the table's read lock was held, wedging
// every later write to the table.
func TestQueryWindowOverflowKeepsTableWritable(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	insertPost(t, srv, "p1", "x")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	maxInt := fmt.Sprint(math.MaxInt)
	for _, params := range []string{
		"limit=1&offset=" + maxInt,
		"sort=rating&limit=1&offset=" + maxInt,
		"limit=" + maxInt + "&offset=" + maxInt,
		"stream=1&limit=1&offset=" + maxInt,
	} {
		resp, err := http.Get(ts.URL + "/v1/db/posts?" + params)
		if err != nil {
			t.Errorf("%s: %v", params, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", params, resp.StatusCode)
		}
	}
	// The largest window that does not overflow is still served.
	resp, err := http.Get(ts.URL + "/v1/db/posts?limit=1&offset=" + fmt.Sprint(math.MaxInt-1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("offset MaxInt-1, limit 1: status %d, want 200", resp.StatusCode)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Insert("posts", document.New("p2", nil)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a write after the overflowing query is still blocked after 2s")
	}
}
