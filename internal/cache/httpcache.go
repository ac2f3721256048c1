package cache

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// CachedResponse is the stored image of an upstream HTTP response.
type CachedResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// HTTPTier is a caching HTTP intermediary: a browser/ISP cache
// (expiration-based) or a CDN edge / reverse proxy (invalidation-based).
// Tiers chain via the Upstream handler, so a full path
// client → browser cache → CDN → origin is three nested tiers.
//
// Semantics implemented:
//
//   - GET responses are cached according to Cache-Control: the freshness
//     lifetime is s-maxage (shared caches) falling back to max-age;
//     no-store disables caching for the response.
//   - A request carrying Cache-Control: no-cache (a client revalidation)
//     bypasses the fresh entry, and a request that finds an expired one
//     revalidates it: both are forwarded conditionally with
//     If-None-Match, and a 304 renews the tier's copy in place.
//   - The PURGE method removes an entry — only on invalidation-based tiers,
//     mirroring CDN purge APIs. Expiration-based tiers answer 405.
//   - UpstreamLatency simulates the network round-trip to the next tier and
//     is slept once per forwarded request; cache hits skip it entirely.
//     It stands in for real geographic RTTs: in-process tests sleep it,
//     the simulator charges it to its virtual clock through Sleep.
type HTTPTier struct {
	Name            string
	Upstream        http.Handler
	Cache           *Cache
	UpstreamLatency time.Duration
	// Sleep allows tests and simulations to replace time.Sleep.
	Sleep func(time.Duration)
	// Clock supplies time for Age computation (defaults to the cache's
	// notion via entry timestamps; only used for headers).
	Clock func() time.Time
}

// NewHTTPTier builds a tier of the given kind in front of upstream.
func NewHTTPTier(name string, kind Kind, upstream http.Handler, upstreamLatency time.Duration) *HTTPTier {
	return &HTTPTier{
		Name:            name,
		Upstream:        upstream,
		Cache:           New(kind, 0, nil),
		UpstreamLatency: upstreamLatency,
		Sleep:           time.Sleep,
		Clock:           time.Now,
	}
}

// ServeHTTP implements http.Handler.
func (t *HTTPTier) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case "PURGE":
		t.servePurge(w, r)
		return
	case http.MethodGet, http.MethodHead:
		t.serveGet(w, r)
		return
	default:
		// Writes and everything else pass through uncached.
		t.forward(w, r)
		return
	}
}

func cacheKey(r *http.Request) string { return r.URL.RequestURI() }

func (t *HTTPTier) servePurge(w http.ResponseWriter, r *http.Request) {
	if t.Cache.Kind() != InvalidationBased {
		http.Error(w, "purge not supported by expiration-based cache", http.StatusMethodNotAllowed)
		return
	}
	t.Cache.Purge(cacheKey(r))
	// Propagate to further invalidation-based tiers downstream of us.
	if t.Upstream != nil {
		rec := newRecorder()
		t.Upstream.ServeHTTP(rec, r)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (t *HTTPTier) serveGet(w http.ResponseWriter, r *http.Request) {
	key := cacheKey(r)

	// held is our copy of the response when it cannot be served as is:
	// the stored one on a client revalidation, or the expired one Get just
	// evicted. Either way its ETag makes the upstream request conditional.
	var held *Entry
	if requestWantsRevalidation(r) {
		held, _ = t.Cache.GetStale(key)
	} else {
		entry, fresh := t.Cache.Get(key)
		if fresh {
			t.writeCached(w, entry, true)
			return
		}
		held = entry
	}
	var heldETag string
	if held != nil {
		if cr, isResp := held.Value.(*CachedResponse); isResp {
			heldETag = cr.Header.Get("ETag")
		}
	}
	up := r.Clone(r.Context())
	if heldETag != "" && up.Header.Get("If-None-Match") == "" {
		up.Header.Set("If-None-Match", heldETag)
	}
	rec := newRecorder()
	if t.UpstreamLatency > 0 && t.Sleep != nil {
		t.Sleep(t.UpstreamLatency)
	}
	if t.Upstream == nil {
		http.Error(w, "no upstream", http.StatusBadGateway)
		return
	}
	t.Upstream.ServeHTTP(rec, up)

	if rec.status == http.StatusNotModified && heldETag != "" && up.Header.Get("If-None-Match") == heldETag {
		// The 304 validated OUR copy (not a different version the client
		// asked about, which is relayed below): renew it — storing it
		// again if it is no longer there, as after an expiry — and serve
		// it.
		if ttl := FreshnessLifetime(rec.header, t.Cache.Kind()); ttl > 0 && !t.Cache.Extend(key, ttl) {
			t.Cache.Put(key, held.Value, held.ETag, ttl)
		}
		if r.Header.Get("If-None-Match") == heldETag {
			// The client itself holds the same version.
			copyCacheHeaders(w.Header(), rec.header)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		t.writeCached(w, held, false)
		return
	}

	ttl := FreshnessLifetime(rec.header, t.Cache.Kind())
	if rec.status == http.StatusOK && ttl > 0 && r.Method == http.MethodGet {
		t.Cache.Put(key, &CachedResponse{
			Status: rec.status,
			Header: rec.header.Clone(),
			Body:   append([]byte(nil), rec.body.Bytes()...),
		}, rec.header.Get("ETag"), ttl)
	}
	// Relay the upstream response verbatim.
	for k, vs := range rec.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Cache", t.Name+": MISS")
	w.WriteHeader(rec.status)
	w.Write(rec.body.Bytes())
}

func (t *HTTPTier) forward(w http.ResponseWriter, r *http.Request) {
	if t.UpstreamLatency > 0 && t.Sleep != nil {
		t.Sleep(t.UpstreamLatency)
	}
	if t.Upstream == nil {
		http.Error(w, "no upstream", http.StatusBadGateway)
		return
	}
	t.Upstream.ServeHTTP(w, r)
}

func (t *HTTPTier) writeCached(w http.ResponseWriter, entry *Entry, hit bool) {
	cr, ok := entry.Value.(*CachedResponse)
	if !ok {
		http.Error(w, "corrupt cache entry", http.StatusInternalServerError)
		return
	}
	for k, vs := range cr.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	age := int(t.Clock().Sub(entry.StoredAt).Seconds())
	if age < 0 {
		age = 0
	}
	w.Header().Set("Age", strconv.Itoa(age))
	if hit {
		w.Header().Set("X-Cache", t.Name+": HIT")
	} else {
		w.Header().Set("X-Cache", t.Name+": REVALIDATED")
	}
	w.WriteHeader(cr.Status)
	w.Write(cr.Body)
}

func copyCacheHeaders(dst, src http.Header) {
	for _, h := range []string{"ETag", "Cache-Control", "Last-Modified"} {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

// requestWantsRevalidation reports whether the request explicitly bypasses
// fresh cached copies (Cache-Control: no-cache or Pragma: no-cache) — the
// mechanism Quaestor clients use when the EBF flags a key as stale.
func requestWantsRevalidation(r *http.Request) bool {
	cc := r.Header.Get("Cache-Control")
	if cc != "" {
		for _, d := range strings.Split(cc, ",") {
			d = strings.TrimSpace(d)
			if d == "no-cache" || d == "max-age=0" {
				return true
			}
		}
	}
	return r.Header.Get("Pragma") == "no-cache"
}

// FreshnessLifetime derives the TTL a cache of the given kind may keep a
// response for from its Cache-Control header. Shared (invalidation-based)
// caches prefer s-maxage; private caches use max-age. no-store (and, for
// shared caches, private) yields zero.
func FreshnessLifetime(h http.Header, kind Kind) time.Duration {
	cc := h.Get("Cache-Control")
	if cc == "" {
		return 0
	}
	var maxAge, sMaxAge time.Duration
	var hasMaxAge, hasSMaxAge bool
	for _, d := range strings.Split(cc, ",") {
		d = strings.TrimSpace(d)
		switch {
		case d == "no-store":
			return 0
		case d == "private" && kind == InvalidationBased:
			return 0
		case strings.HasPrefix(d, "max-age="):
			if secs, err := strconv.Atoi(strings.TrimPrefix(d, "max-age=")); err == nil {
				maxAge = time.Duration(secs) * time.Second
				hasMaxAge = true
			}
		case strings.HasPrefix(d, "s-maxage="):
			if secs, err := strconv.Atoi(strings.TrimPrefix(d, "s-maxage=")); err == nil {
				sMaxAge = time.Duration(secs) * time.Second
				hasSMaxAge = true
			}
		}
	}
	if kind == InvalidationBased && hasSMaxAge {
		return sMaxAge
	}
	if hasMaxAge {
		return maxAge
	}
	return 0
}

// recorder is a minimal in-process http.ResponseWriter capture.
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{status: http.StatusOK, header: http.Header{}}
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(status int) { r.status = status }

func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

var _ http.ResponseWriter = (*recorder)(nil)
var _ io.Writer = (*recorder)(nil)

// FormatCacheControl renders the Cache-Control value of a response that
// private caches may keep for ttl and shared caches for sharedTTL. Both
// count in whole seconds, so a lifetime under one second is none at all:
// with neither left the response is no-store, and with only a shared one
// private caches get max-age=0.
func FormatCacheControl(ttl, sharedTTL time.Duration) string {
	b := int64(ttl / time.Second)
	c := int64(sharedTTL / time.Second)
	if b <= 0 && c <= 0 {
		return "no-store"
	}
	out := "public, max-age=" + strconv.FormatInt(max(b, 0), 10)
	if c > 0 {
		out += ", s-maxage=" + strconv.FormatInt(c, 10)
	}
	return out
}
