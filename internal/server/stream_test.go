package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"quaestor/internal/document"
	"quaestor/internal/query"
)

// TestQueryStreamNDJSON drives the streamed query endpoint end to end:
// one document per line, each byte for byte what json.Marshal makes of
// the stored document (HTML escaping included), newest plan report in
// stats, and explicitly uncacheable headers.
func TestQueryStreamNDJSON(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	for i := 0; i < 20; i++ {
		insertPost(t, srv, fmt.Sprintf("p%02d", i), "a")
	}
	// Rated above the rest, so it leads the window.
	if err := srv.Insert("posts", document.New("html", map[string]any{
		"title":  "<b>fish & chips</b>\u2028next line",
		"tags":   []any{"a", "<&>"},
		"rating": int64(4),
	})); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateIndex("posts", "rating"); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// The p posts share rating 3 (len("pNN")), below html's 4; ties sort by id.
	path := "/v1/db/posts?q=" + url.QueryEscape(`{"rating":{"$gt":0}}`) +
		"&sort=-rating&limit=5&stream=1"
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("streamed responses must be no-store, got %q", cc)
	}
	if rec.Header().Get(HeaderKey) == "" {
		t.Fatal("missing query key header")
	}

	var streamed []*document.Document
	var lines []string
	body := rec.Body.String()
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		var d document.Document
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d: %v", len(streamed), err)
		}
		streamed = append(streamed, &d)
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// The stream must match the materializing path document for document.
	q := query.New("posts", query.Gt("rating", int64(0))).Sorted(query.Desc("rating")).Sliced(0, 5)
	want, _, err := srv.router.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d docs, want %d", len(streamed), len(want))
	}
	for i := range want {
		if streamed[i].ID != want[i].ID || streamed[i].Version != want[i].Version {
			t.Fatalf("position %d: %s/v%d, want %s/v%d",
				i, streamed[i].ID, streamed[i].Version, want[i].ID, want[i].Version)
		}
		marshaled, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if lines[i] != string(marshaled) {
			t.Fatalf("line %d:\n got %s\nwant %s", i, lines[i], marshaled)
		}
	}
	if !strings.HasSuffix(body, "}\n") {
		t.Fatalf("stream does not end in a newline-terminated document: %q", body)
	}
	if !strings.Contains(lines[0], `\u003cb\u003efish \u0026 chips\u003c/b\u003e\u2028next line`) {
		t.Fatalf("line 0 is not HTML-escaped: %s", lines[0])
	}

	// The streamed execution is attributed in stats: a range plan ran, and
	// the executor's row counters surfaced.
	st := srv.Stats()
	if st.PlanRanges != 1 || st.Queries != 1 {
		t.Fatalf("stats = %+v, want one range query", st)
	}
	if st.RowsReturned != 5 || st.RowsExamined < 5 {
		t.Fatalf("row counters = examined %d / returned %d, want ≥5 / 5",
			st.RowsExamined, st.RowsReturned)
	}

	// Malformed filters still fail fast with a JSON error, not a stream.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/db/posts?q=%7Bnope&stream=1", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad filter: %d", rec.Code)
	}
}

func TestStreamRequested(t *testing.T) {
	for v, want := range map[string]bool{
		"1": true, "true": true, "TRUE": true, "t": true,
		"0": false, "false": false, "": false, "yes": false,
	} {
		if got := streamRequested(v); got != want {
			t.Errorf("streamRequested(%q) = %v, want %v", v, got, want)
		}
	}
}
