package cache

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingOrigin serves a versioned resource with configurable headers.
type countingOrigin struct {
	hits    atomic.Int64
	cc      string
	etag    string
	payload string
}

func (o *countingOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.hits.Add(1)
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm == o.etag {
		w.Header().Set("ETag", o.etag)
		w.Header().Set("Cache-Control", o.cc)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Cache-Control", o.cc)
	if o.etag != "" {
		w.Header().Set("ETag", o.etag)
	}
	fmt.Fprint(w, o.payload)
}

func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestTierCachesAndServesHits(t *testing.T) {
	origin := &countingOrigin{cc: "public, max-age=60", payload: "hello"}
	tier := NewHTTPTier("edge", InvalidationBased, origin, 0)

	r1 := get(t, tier, "/res", nil)
	if r1.Body.String() != "hello" || !strings.Contains(r1.Header().Get("X-Cache"), "MISS") {
		t.Fatalf("first fetch: %q %q", r1.Body.String(), r1.Header().Get("X-Cache"))
	}
	r2 := get(t, tier, "/res", nil)
	if !strings.Contains(r2.Header().Get("X-Cache"), "HIT") {
		t.Errorf("second fetch should hit: %q", r2.Header().Get("X-Cache"))
	}
	if r2.Body.String() != "hello" {
		t.Errorf("cached body = %q", r2.Body.String())
	}
	if o := origin.hits.Load(); o != 1 {
		t.Errorf("origin hits = %d, want 1", o)
	}
	if age := r2.Header().Get("Age"); age == "" {
		t.Error("hit missing Age header")
	}
}

func TestNoStoreNotCached(t *testing.T) {
	origin := &countingOrigin{cc: "no-store", payload: "x"}
	tier := NewHTTPTier("edge", InvalidationBased, origin, 0)
	get(t, tier, "/res", nil)
	get(t, tier, "/res", nil)
	if o := origin.hits.Load(); o != 2 {
		t.Errorf("no-store resource was cached (origin hits = %d)", o)
	}
}

func TestSharedCacheUsesSMaxAgeAndIgnoresPrivate(t *testing.T) {
	// s-maxage=0 means uncacheable for the shared tier even with max-age.
	origin := &countingOrigin{cc: "public, max-age=60, s-maxage=0", payload: "x"}
	cdn := NewHTTPTier("cdn", InvalidationBased, origin, 0)
	get(t, cdn, "/r", nil)
	get(t, cdn, "/r", nil)
	if origin.hits.Load() != 2 {
		t.Error("shared cache must prefer s-maxage")
	}
	// A private response must not land in a shared cache...
	origin2 := &countingOrigin{cc: "private, max-age=60", payload: "x"}
	cdn2 := NewHTTPTier("cdn", InvalidationBased, origin2, 0)
	get(t, cdn2, "/r", nil)
	get(t, cdn2, "/r", nil)
	if origin2.hits.Load() != 2 {
		t.Error("private response cached in shared tier")
	}
	// ...but may land in a browser cache.
	origin3 := &countingOrigin{cc: "private, max-age=60", payload: "x"}
	browser := NewHTTPTier("browser", ExpirationBased, origin3, 0)
	get(t, browser, "/r", nil)
	get(t, browser, "/r", nil)
	if origin3.hits.Load() != 1 {
		t.Error("private response should cache in the browser tier")
	}
}

func TestRevalidationWith304RefreshesEntry(t *testing.T) {
	origin := &countingOrigin{cc: "public, max-age=60", etag: `"v1"`, payload: "body1"}
	tier := NewHTTPTier("edge", InvalidationBased, origin, 0)
	get(t, tier, "/r", nil) // fill

	// A no-cache request bypasses the fresh copy; the origin answers 304
	// and the tier serves its stored body.
	r := get(t, tier, "/r", map[string]string{"Cache-Control": "no-cache"})
	if r.Code != http.StatusOK || r.Body.String() != "body1" {
		t.Fatalf("revalidated response = %d %q", r.Code, r.Body.String())
	}
	if !strings.Contains(r.Header().Get("X-Cache"), "REVALIDATED") {
		t.Errorf("X-Cache = %q", r.Header().Get("X-Cache"))
	}
	if origin.hits.Load() != 2 {
		t.Errorf("origin hits = %d", origin.hits.Load())
	}
}

// TestExpiredEntryRevalidatesConditionally: a plain request that finds
// the tier's copy expired must revalidate it, not refetch it — one
// conditional upstream request, a 304, and the stored body served again
// with a renewed lifetime.
func TestExpiredEntryRevalidatesConditionally(t *testing.T) {
	origin := &countingOrigin{cc: "public, max-age=60", etag: `"v1"`, payload: "body1"}
	var validators []string
	upstream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		validators = append(validators, r.Header.Get("If-None-Match"))
		origin.ServeHTTP(w, r)
	})
	now := time.Unix(1_700_000_000, 0)
	tier := NewHTTPTier("edge", InvalidationBased, upstream, 0)
	tier.Cache = New(InvalidationBased, 0, func() time.Time { return now })
	tier.Clock = func() time.Time { return now }

	get(t, tier, "/r", nil) // fill
	now = now.Add(61 * time.Second)

	r := get(t, tier, "/r", nil)
	if r.Code != http.StatusOK || r.Body.String() != "body1" {
		t.Fatalf("response after expiry = %d %q", r.Code, r.Body.String())
	}
	if len(validators) != 2 || validators[1] != `"v1"` {
		t.Fatalf("upstream saw validators %q, want one conditional request for \"v1\" after the fill", validators)
	}
	if x := r.Header().Get("X-Cache"); !strings.Contains(x, "REVALIDATED") {
		t.Errorf("X-Cache = %q, want REVALIDATED (the upstream answered 304)", x)
	}
	// The 304 renewed the copy: the next request is a plain hit.
	if r := get(t, tier, "/r", nil); !strings.Contains(r.Header().Get("X-Cache"), "HIT") || origin.hits.Load() != 2 {
		t.Errorf("after revalidation: X-Cache = %q, origin hits = %d, want a HIT and 2", r.Header().Get("X-Cache"), origin.hits.Load())
	}
}

func TestClientConditionalRequestGets304(t *testing.T) {
	origin := &countingOrigin{cc: "public, max-age=60", etag: `"v1"`, payload: "body1"}
	tier := NewHTTPTier("edge", InvalidationBased, origin, 0)
	get(t, tier, "/r", nil) // fill
	r := get(t, tier, "/r", map[string]string{
		"Cache-Control": "no-cache",
		"If-None-Match": `"v1"`,
	})
	if r.Code != http.StatusNotModified {
		t.Errorf("client with matching ETag should get 304, got %d", r.Code)
	}
}

// TestClientValidatorForAnotherVersionIsRelayed: the client revalidates a
// version newer than the tier's stored one. The origin's 304 answers the
// client's validator, not the tier's, so the tier must relay it and must
// not take it as proof that its own older copy is current.
func TestClientValidatorForAnotherVersionIsRelayed(t *testing.T) {
	origin := &countingOrigin{cc: "public, max-age=60", etag: `"v1"`, payload: "body1"}
	tier := NewHTTPTier("edge", InvalidationBased, origin, 0)
	get(t, tier, "/r", nil) // fill with v1
	origin.etag, origin.payload = `"v2"`, "body2"

	r := get(t, tier, "/r", map[string]string{
		"Cache-Control": "no-cache",
		"If-None-Match": `"v2"`,
	})
	if r.Code != http.StatusNotModified || r.Header().Get("ETag") != `"v2"` {
		t.Errorf("client holding v2 should get the origin's 304 for v2, got %d %q %q", r.Code, r.Header().Get("ETag"), r.Body.String())
	}
	if revalidated := tier.Cache.Stats().Revalidations; revalidated != 0 {
		t.Errorf("the tier renewed its v1 copy on a 304 that validated v2 (%d revalidations)", revalidated)
	}
}

func TestPurgeMethod(t *testing.T) {
	origin := &countingOrigin{cc: "public, max-age=60", payload: "x"}
	cdn := NewHTTPTier("cdn", InvalidationBased, origin, 0)
	get(t, cdn, "/r", nil)

	req := httptest.NewRequest("PURGE", "/r", nil)
	rec := httptest.NewRecorder()
	cdn.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("PURGE = %d", rec.Code)
	}
	get(t, cdn, "/r", nil)
	if origin.hits.Load() != 3 { // miss, PURGE passthrough, miss again
		t.Errorf("origin hits = %d", origin.hits.Load())
	}

	browser := NewHTTPTier("browser", ExpirationBased, origin, 0)
	rec2 := httptest.NewRecorder()
	browser.ServeHTTP(rec2, httptest.NewRequest("PURGE", "/r", nil))
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("expiration-based tier PURGE = %d, want 405", rec2.Code)
	}
}

func TestWritesPassThroughUncached(t *testing.T) {
	var sawPost atomic.Int64
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			sawPost.Add(1)
		}
		w.WriteHeader(http.StatusCreated)
	})
	tier := NewHTTPTier("edge", InvalidationBased, origin, 0)
	req := httptest.NewRequest(http.MethodPost, "/r", strings.NewReader("{}"))
	rec := httptest.NewRecorder()
	tier.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated || sawPost.Load() != 1 {
		t.Errorf("POST passthrough broken: %d %d", rec.Code, sawPost.Load())
	}
}

func TestQueryStringIsPartOfKey(t *testing.T) {
	origin := &countingOrigin{cc: "public, max-age=60", payload: "x"}
	tier := NewHTTPTier("edge", InvalidationBased, origin, 0)
	get(t, tier, "/r?q=1", nil)
	get(t, tier, "/r?q=2", nil)
	if origin.hits.Load() != 2 {
		t.Error("different query strings must cache separately")
	}
	get(t, tier, "/r?q=1", nil)
	if origin.hits.Load() != 2 {
		t.Error("same query string should hit")
	}
}

func TestUpstreamLatencySimulated(t *testing.T) {
	origin := &countingOrigin{cc: "public, max-age=60", payload: "x"}
	var slept time.Duration
	tier := NewHTTPTier("edge", InvalidationBased, origin, 25*time.Millisecond)
	tier.Sleep = func(d time.Duration) { slept += d }
	get(t, tier, "/r", nil) // miss: sleeps
	get(t, tier, "/r", nil) // hit: no sleep
	if slept != 25*time.Millisecond {
		t.Errorf("slept %v, want exactly one upstream round-trip", slept)
	}
}

func TestTierChainBrowserOverCDN(t *testing.T) {
	origin := &countingOrigin{cc: "public, max-age=60, s-maxage=60", payload: "x"}
	cdn := NewHTTPTier("cdn", InvalidationBased, origin, 0)
	browser := NewHTTPTier("browser", ExpirationBased, cdn, 0)

	get(t, browser, "/r", nil) // miss at both, fills both
	if origin.hits.Load() != 1 {
		t.Fatalf("origin hits = %d", origin.hits.Load())
	}
	get(t, browser, "/r", nil) // browser hit
	if got := cdn.Cache.Stats().Hits; got != 0 {
		t.Errorf("browser hit should not reach the CDN (cdn hits = %d)", got)
	}
	browser.Cache.Clear()
	get(t, browser, "/r", nil) // browser miss -> CDN hit
	if origin.hits.Load() != 1 {
		t.Error("CDN should have absorbed the browser miss")
	}
}

func TestFreshnessLifetimeParsing(t *testing.T) {
	mk := func(cc string) http.Header {
		h := http.Header{}
		h.Set("Cache-Control", cc)
		return h
	}
	cases := []struct {
		cc   string
		kind Kind
		want time.Duration
	}{
		{"max-age=30", ExpirationBased, 30 * time.Second},
		{"max-age=30, s-maxage=90", InvalidationBased, 90 * time.Second},
		{"max-age=30, s-maxage=90", ExpirationBased, 30 * time.Second},
		{"no-store, max-age=30", InvalidationBased, 0},
		{"", ExpirationBased, 0},
		{"public", ExpirationBased, 0},
		{"max-age=oops", ExpirationBased, 0},
	}
	for _, tc := range cases {
		if got := FreshnessLifetime(mk(tc.cc), tc.kind); got != tc.want {
			t.Errorf("FreshnessLifetime(%q, %v) = %v, want %v", tc.cc, tc.kind, got, tc.want)
		}
	}
	if FreshnessLifetime(http.Header{}, ExpirationBased) != 0 {
		t.Error("missing header should be uncacheable")
	}
}

func TestFormatCacheControl(t *testing.T) {
	cases := []struct {
		ttl, shared time.Duration
		want        string
	}{
		{0, 0, "no-store"},
		{30 * time.Second, 90 * time.Second, "public, max-age=30, s-maxage=90"},
		{30 * time.Second, 0, "public, max-age=30"},
		// Whole seconds: what is left of a sub-second lifetime is none.
		{500 * time.Millisecond, 500 * time.Millisecond, "no-store"},
		{1500 * time.Millisecond, 0, "public, max-age=1"},
		// Shared caches only: private caches are told so explicitly.
		{0, 90 * time.Second, "public, max-age=0, s-maxage=90"},
		{-time.Second, time.Second, "public, max-age=0, s-maxage=1"},
	}
	for _, tc := range cases {
		if got := FormatCacheControl(tc.ttl, tc.shared); got != tc.want {
			t.Errorf("FormatCacheControl(%v, %v) = %q, want %q", tc.ttl, tc.shared, got, tc.want)
		}
	}
}

// FuzzCacheControl holds the freshness codec to its one contract: parsing
// any header never panics, and a header rendered from (ttl, shared) reads
// back as the whole-second ttl in a private cache and as shared-or-ttl in
// a shared one.
func FuzzCacheControl(f *testing.F) {
	f.Add(int64(0), int64(0), "no-store")
	f.Add(int64(90*time.Second), int64(90*time.Second), "public, max-age=30, s-maxage=90")
	f.Add(int64(500*time.Millisecond), int64(0), "max-age=oops, private")
	f.Add(int64(0), int64(time.Second), "s-maxage=-1,max-age=")
	f.Fuzz(func(t *testing.T, ttl, shared int64, raw string) {
		h := http.Header{}
		h.Set("Cache-Control", raw)
		FreshnessLifetime(h, ExpirationBased)
		FreshnessLifetime(h, InvalidationBased)

		d, s := time.Duration(ttl), time.Duration(shared)
		h.Set("Cache-Control", FormatCacheControl(d, s))
		whole := func(x time.Duration) time.Duration { return max(x/time.Second, 0) * time.Second }
		if got, want := FreshnessLifetime(h, ExpirationBased), whole(d); got != want {
			t.Errorf("%q: private lifetime %v, want %v", h.Get("Cache-Control"), got, want)
		}
		want := whole(s)
		if want == 0 {
			want = whole(d)
		}
		if got := FreshnessLifetime(h, InvalidationBased); got != want {
			t.Errorf("%q: shared lifetime %v, want %v", h.Get("Cache-Control"), got, want)
		}
	})
}
