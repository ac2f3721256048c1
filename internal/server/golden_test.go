package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// goldenExchange renders one response as the status line, the sorted
// header lines and the body, so a whole exchange compares as one string.
func goldenExchange(h http.Handler, target string, header ...string) string {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var lines []string
	for name, vals := range rec.Header() {
		lines = append(lines, name+": "+strings.Join(vals, ","))
	}
	sort.Strings(lines)
	return http.StatusText(rec.Code) + "\n" + strings.Join(lines, "\n") + "\n\n" + rec.Body.String()
}

// TestReadAndQueryResponsesGolden pins the wire form of the two cacheable
// responses — body bytes, ETag, Cache-Control and the X-Quaestor-* headers
// — to what the reflective encoding/json path produced before the direct
// encoder and the pooled single-write body replaced it (the only addition
// is Content-Length). Caches and SDKs in the field hold entries keyed and
// validated by exactly these bytes.
func TestReadAndQueryResponsesGolden(t *testing.T) {
	now := time.Unix(1700000000, 0)
	srv := newTestServer(t, 1, &Options{Clock: func() time.Time { return now }})
	for _, d := range []*document.Document{
		document.New("p1", map[string]any{"tags": []any{"x", "y"}, "rating": int64(-3), "title": "a <b> & \"c\""}),
		document.New("p2", map[string]any{"tags": []any{"x"}, "score": 1e21, "ratio": 2.5e-7, "meta": map[string]any{"z": nil, "a": []any{}, "é": true}}),
		document.New("p/3 ü", map[string]any{"tags": []any{"x"}, "big": int64(1) << 60, "_id": "shadowed", "nl": "line\nbreak\u2028"}),
		document.New("p4", map[string]any{"tags": []any{"other"}}),
	} {
		if err := srv.Insert("posts", d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Update("posts", "p2", store.UpdateSpec{Set: map[string]any{"rating": 7}}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	queryURL := "/v1/db/posts?q=" + url.QueryEscape(`{"tags":{"$contains":"x"}}`)

	cases := []struct{ name, got, want string }{
		{"record", goldenExchange(h, "/v1/db/posts/p2"), goldenRecord},
		{"record revalidation", goldenExchange(h, "/v1/db/posts/p2", "If-None-Match", `"v2"`), goldenRecord304},
		{"query", goldenExchange(h, queryURL), goldenQuery},
		{"query revalidation", goldenExchange(h, queryURL, "If-None-Match", `"q6c90e4f487e176af"`), goldenQuery304},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s response changed:\n--- got\n%s\n--- want\n%s", tc.name, tc.got, tc.want)
		}
	}

	ids := NewCluster(srv.router, &Options{Clock: func() time.Time { return now }, Representation: RepAlwaysIDs})
	defer ids.Close()
	if got := goldenExchange(ids.Handler(), queryURL); got != goldenIDList {
		t.Errorf("id-list response changed:\n--- got\n%s\n--- want\n%s", got, goldenIDList)
	}
}

// TestETagsPinned pins the validators against the formulas they have
// always had (fmt-based, as below): a changed ETag would turn every
// revalidation of an already-cached entry into a full response.
func TestETagsPinned(t *testing.T) {
	legacy := func(q *query.Query, docs []*document.Document) string {
		h := uint64(1469598103934665603)
		mix := func(s string) {
			for i := 0; i < len(s); i++ {
				h ^= uint64(s[i])
				h *= 1099511628211
			}
		}
		mix(q.Key())
		for _, d := range docs {
			mix(d.ID)
			mix(fmt.Sprintf("#%d", d.Version))
		}
		return fmt.Sprintf("\"q%x\"", h)
	}
	q := query.New("posts", query.Contains("tags", "x"))
	var docs []*document.Document
	for i, v := range []int64{1, 9, 10, 12345678901, math.MaxInt64, 0, -4} {
		docs = append(docs, &document.Document{ID: fmt.Sprintf("d%d", i), Version: v})
		if got, want := resultETag(q, docs), legacy(q, docs); got != want {
			t.Errorf("resultETag over %d docs = %s, want %s", len(docs), got, want)
		}
		if got, want := ETagFor(v), fmt.Sprintf("\"v%d\"", v); got != want {
			t.Errorf("ETagFor(%d) = %s, want %s", v, got, want)
		}
	}
	if got := resultETag(q, nil); got != `"qcba178ab42a7a3c6"` {
		t.Errorf("empty-result ETag = %s", got)
	}
	if got := resultETag(q, docs); got != `"q9b7d95ca1b0a0982"` {
		t.Errorf("7-doc ETag = %s", got)
	}
}

// The golden exchanges: captured from the commit before the direct encoder
// (httptest.ResponseRecorder output), plus the Content-Length line.
const goldenRecord = `OK
Cache-Control: public, max-age=180, s-maxage=180
Content-Length: 114
Content-Type: application/json
Etag: "v2"
X-Quaestor-Ebf-Generated: 1700000000000000000
X-Quaestor-Key: posts/p2

{"_id":"p2","_version":2,"meta":{"a":[],"z":null,"é":true},"rating":7,"ratio":2.5e-7,"score":1e+21,"tags":["x"]}
`

const goldenRecord304 = `Not Modified
Cache-Control: public, max-age=180, s-maxage=180
Etag: "v2"
X-Quaestor-Ebf-Generated: 1700000000000000000
X-Quaestor-Key: posts/p2

`

const goldenQuery = `OK
Cache-Control: public, max-age=90, s-maxage=90
Content-Length: 370
Content-Type: application/json
Etag: "q6c90e4f487e176af"
X-Quaestor-Ebf-Generated: 1700000000000000000
X-Quaestor-Key: q:posts/"tags":$contains:"x"
X-Quaestor-Rep: object-list

{"rep":"object-list","ids":["p/3 ü","p1","p2"],"docs":[{"_id":"p/3 ü","_version":1,"big":1152921504606846976,"nl":"line\nbreak\u2028","tags":["x"]},{"_id":"p1","_version":1,"rating":-3,"tags":["x","y"],"title":"a \u003cb\u003e \u0026 \"c\""},{"_id":"p2","_version":2,"meta":{"a":[],"z":null,"é":true},"rating":7,"ratio":2.5e-7,"score":1e+21,"tags":["x"]}],"count":3}
`

const goldenQuery304 = `Not Modified
Cache-Control: public, max-age=90, s-maxage=90
Etag: "q6c90e4f487e176af"
X-Quaestor-Ebf-Generated: 1700000000000000000
X-Quaestor-Key: q:posts/"tags":$contains:"x"
X-Quaestor-Rep: object-list

`

const goldenIDList = `OK
Cache-Control: public, max-age=3600, s-maxage=3600
Content-Length: 55
Content-Type: application/json
Etag: "q6c90e4f487e176af"
X-Quaestor-Key: q:posts/"tags":$contains:"x"
X-Quaestor-Rep: id-list

{"rep":"id-list","ids":["p/3 ü","p1","p2"],"count":3}
`

// TestQueryResponseAppendJSONMatchesEncodingJSON checks the hand-written
// envelope against the struct tags it mirrors.
func TestQueryResponseAppendJSONMatchesEncodingJSON(t *testing.T) {
	doc := document.New("a<b", map[string]any{"n": int64(1)})
	for _, r := range []QueryResponse{
		{},
		{Representation: "id-list", IDs: []string{}, Count: 0},
		{Representation: "id-list", IDs: []string{"a<b", "ü\"\n"}, Count: 2},
		{Representation: "object-list", IDs: []string{"a<b"}, Docs: []*document.Document{doc}, Count: 1},
		{Representation: "object-list", IDs: []string{"a<b", "x"}, Docs: []*document.Document{doc, nil}, Count: -2},
		{Representation: "object-list", IDs: nil, Docs: []*document.Document{}, Count: 0},
	} {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.AppendJSON(nil)
		if err != nil || string(got) != string(want) {
			t.Errorf("AppendJSON = %s (%v), want %s", got, err, want)
		}
	}
	bad := QueryResponse{IDs: []string{"x"}, Docs: []*document.Document{{ID: "x", Fields: map[string]any{"f": math.NaN()}}}}
	if out, err := bad.AppendJSON([]byte("keep")); err == nil || string(out) != "keep" {
		t.Errorf("NaN field: out %q, err %v", out, err)
	}
}

// TestUnencodableDocumentIs500 checks the one new failure path of the
// buffered body: a document encoding/json cannot represent used to end as
// a truncated 200 under cacheable headers; now nothing cacheable leaves.
func TestUnencodableDocumentIs500(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	if err := srv.Insert("posts", document.New("nan", map[string]any{"tags": []any{"x"}, "f": math.NaN()})); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/v1/db/posts/nan", "/v1/db/posts?q=" + url.QueryEscape(`{"tags":{"$contains":"x"}}`)} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusInternalServerError || rec.Header().Get("Cache-Control") != "no-store" || rec.Header().Get("ETag") != "" {
			t.Errorf("%s: status %d, headers %v", target, rec.Code, rec.Header())
		}
	}
}

// TestQueryReportsOneBatchToEBF checks what a query response reports to
// the EBF — the query key plus, for object lists only, each member's
// record key — and that the TTL table's size shows in /v1/stats.
func TestQueryReportsOneBatchToEBF(t *testing.T) {
	for _, tc := range []struct {
		rep  RepresentationPolicy
		keys int
	}{{RepAlwaysObjects, 1 + 3}, {RepAlwaysIDs, 1}} {
		srv := newTestServer(t, 1, &Options{Representation: tc.rep})
		for _, id := range []string{"p1", "p2", "p3"} {
			insertPost(t, srv, id, "x")
		}
		if _, err := srv.Query(query.New("posts", query.Contains("tags", "x"))); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var body StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.EBF.Reads != uint64(tc.keys) || body.EBF.TrackedKeys != tc.keys {
			t.Errorf("policy %d: ebf stats %+v, want %d keys reported and tracked", tc.rep, body.EBF, tc.keys)
		}
		if !srv.coh.ReportWrite("q:posts/\"tags\":$contains:\"x\"") {
			t.Errorf("policy %d: query key not covered by the EBF", tc.rep)
		}
		if got := srv.coh.ReportWrite(RecordKey("posts", "p2")); got != (tc.keys > 1) {
			t.Errorf("policy %d: member record covered = %v", tc.rep, got)
		}
	}
}

// TestSharedDocumentsUnderConcurrentWrites exercises the read-only
// contract of Read/Query results: responses are encoded straight from the
// store's copy-on-write documents while writers replace them. Every
// response must be one consistent version (a == b), and the race detector
// must stay quiet.
func TestSharedDocumentsUnderConcurrentWrites(t *testing.T) {
	srv := newTestServer(t, 1, &Options{Representation: RepAlwaysObjects})
	if err := srv.Insert("posts", document.New("p1", map[string]any{"tags": []any{"x"}, "a": int64(0), "b": int64(0), "log": []any{}})); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			spec := store.UpdateSpec{Set: map[string]any{"a": i, "b": i}, Push: map[string]any{"log": i}}
			if i%50 == 0 {
				spec = store.UpdateSpec{Set: map[string]any{"a": i, "b": i, "log": []any{}}}
			}
			if _, err := srv.Update("posts", "p1", spec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func(d *document.Document) {
		a, _ := d.Get("a")
		b, _ := d.Get("b")
		if a != b {
			t.Errorf("torn document: a=%v b=%v", a, b)
		}
	}
	queryURL := "/v1/db/posts?q=" + url.QueryEscape(`{"tags":{"$contains":"x"}}`)
	for i := 0; i < 300; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/db/posts/p1", nil))
		var doc document.Document
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("record body %q: %v", rec.Body.String(), err)
		}
		check(&doc)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, queryURL, nil))
		var res QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || len(res.Docs) != 1 {
			t.Fatalf("query body %q: %v", rec.Body.String(), err)
		}
		check(res.Docs[0])
	}
}
