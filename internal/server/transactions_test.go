package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"quaestor/internal/cache"
	"quaestor/internal/ttl"
)

// TestTransactionRefusedWritesNothing: a transaction holding a write the
// server refuses is refused whole, before its earlier, valid writes land.
func TestTransactionRefusedWritesNothing(t *testing.T) {
	const valid = `{"op":"put","table":"posts","id":"a-x","doc":{"title":"ok"}}`
	for _, tc := range []struct {
		name string
		bad  string
		want int
	}{
		{"patch spec does not fit", `{"op":"patch","table":"posts","id":"p1","spec":{"inc":{"title":1}}}`, http.StatusBadRequest},
		{"put without document", `{"op":"put","table":"posts","id":"b"}`, http.StatusBadRequest},
		{"unknown op", `{"op":"upsert","table":"posts","id":"b","doc":{}}`, http.StatusBadRequest},
		{"patch without spec", `{"op":"patch","table":"posts","id":"p1"}`, http.StatusBadRequest},
		{"schema rejects put", `{"op":"put","table":"posts","id":"b","doc":{"title":7}}`, http.StatusUnprocessableEntity},
		{"patch of a missing record", `{"op":"patch","table":"posts","id":"nope","spec":{"set":{"n":1}}}`, http.StatusNotFound},
		{"patch after own delete", `{"op":"delete","table":"posts","id":"p1"},{"op":"patch","table":"posts","id":"p1","spec":{"set":{"n":1}}}`, http.StatusNotFound},
		{"conditional patch, stale version", `{"op":"patch","table":"posts","id":"p1","spec":{"set":{"n":1},"ifVersion":7}}`, http.StatusPreconditionFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newTestServer(t, 1, nil)
			h := srv.Handler()
			if err := srv.SetSchema("posts", &Schema{Fields: map[string]FieldSpec{"title": {Type: TypeString}}}); err != nil {
				t.Fatal(err)
			}
			if rec := serve(h, http.MethodPut, "/v1/db/posts/p1", `{"title":"t"}`); rec.Code != http.StatusOK {
				t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
			}
			body := `{"writes":[` + valid + `,` + tc.bad + `]}`
			rec := serve(h, http.MethodPost, "/v1/transaction", body)
			if rec.Code != tc.want || !strings.HasPrefix(rec.Body.String(), `{"error":`) {
				t.Errorf("transaction = %d: %s, want %d and an error body", rec.Code, rec.Body, tc.want)
			}
			if rec := serve(h, http.MethodGet, "/v1/db/posts/a-x", ""); rec.Code != http.StatusNotFound {
				t.Errorf("refused transaction stored its first write: GET a-x = %d: %s", rec.Code, rec.Body)
			}
			if rec := serve(h, http.MethodGet, "/v1/db/posts/p1", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"_version":1`) {
				t.Errorf("refused transaction changed p1: %d %s", rec.Code, rec.Body)
			}
		})
	}
}

// TestTransactionPatchSeesOwnPut: the dry run patches the record as the
// transaction's earlier writes leave it.
func TestTransactionPatchSeesOwnPut(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	body := `{"writes":[{"op":"put","table":"posts","id":"n1","doc":{"n":1,"tags":[]}},` +
		`{"op":"patch","table":"posts","id":"n1","spec":{"inc":{"n":1},"push":{"tags":"a"}}}]}`
	if rec := serve(srv.Handler(), http.MethodPost, "/v1/transaction", body); rec.Code != http.StatusOK {
		t.Fatalf("transaction = %d: %s", rec.Code, rec.Body)
	}
	doc, err := srv.router.Get("posts", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := doc.Get("n"); n != int64(2) || doc.Version != 2 {
		t.Errorf("n1 = %v at v%d, want n=2 at v2", doc.Fields, doc.Version)
	}
}

// cacheControlGolden is the Cache-Control every mode sends for a response
// whose estimated TTL is the column's.
var cacheControlGolden = map[CacheMode]map[time.Duration]string{
	ModeFull: {
		0: "no-store", 500 * time.Millisecond: "no-store",
		time.Second: "public, max-age=1, s-maxage=1", 90 * time.Second: "public, max-age=90, s-maxage=90",
	},
	ModeCDNOnly: {
		0: "no-store", 500 * time.Millisecond: "no-store",
		time.Second: "public, max-age=0, s-maxage=1", 90 * time.Second: "public, max-age=0, s-maxage=90",
	},
	ModeClientOnly: {
		0: "no-store", 500 * time.Millisecond: "no-store",
		time.Second: "public, max-age=1", 90 * time.Second: "public, max-age=90",
	},
	ModeUncached: {
		0: "no-store", 500 * time.Millisecond: "no-store",
		time.Second: "no-store", 90 * time.Second: "no-store",
	},
}

// TestCacheControlGolden pins the freshness header of record, query and
// file responses in every mode: browsers, CDNs and the SDK all read these
// bytes.
func TestCacheControlGolden(t *testing.T) {
	for mode, row := range cacheControlGolden {
		for dur, want := range row {
			t.Run(fmt.Sprintf("%v/%v", mode, dur), func(t *testing.T) {
				if dur == 0 {
					// The estimator never issues 0; the handlers render
					// exactly this expression.
					srv := newTestServer(t, 1, &Options{Mode: mode})
					if got := cache.FormatCacheControl(srv.CacheControl(0)); got != want {
						t.Errorf("Cache-Control = %q, want %q", got, want)
					}
					return
				}
				srv := newTestServer(t, 1, &Options{Mode: mode, TTL: &ttl.Config{MinTTL: dur, MaxTTL: dur}})
				h := srv.Handler()
				if rec := serve(h, http.MethodPut, "/v1/db/posts/p1", `{"tags":["x"]}`); rec.Code != http.StatusOK {
					t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
				}
				if err := srv.PutFile("app.js", "application/javascript", []byte("1")); err != nil {
					t.Fatal(err)
				}
				for _, target := range []string{
					"/v1/db/posts/p1",
					"/v1/db/posts?q=" + url.QueryEscape(`{"tags":{"$contains":"x"}}`),
					"/v1/files/app.js",
				} {
					rec := serve(h, http.MethodGet, target, "")
					if got := rec.Header().Get("Cache-Control"); rec.Code != http.StatusOK || got != want {
						t.Errorf("GET %s = %d, Cache-Control %q, want %q", target, rec.Code, got, want)
					}
				}
			})
		}
	}
}
