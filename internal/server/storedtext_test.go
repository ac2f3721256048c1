package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"quaestor/internal/document"
)

// TestLoadedDocumentsAreServedUndecoded: documents loaded through
// POST /v1/transaction and then served by GET and by a tag-probe query —
// the benchmark's load and read paths — are never decoded into values.
// The index reads each document's tags from its text, the probe's
// residual is elided, and the wire form served is the text the document
// arrived in. A scan on an unindexed field reads that one value off each
// text, so it decodes no document either.
func TestLoadedDocumentsAreServedUndecoded(t *testing.T) {
	h := newTestServer(t, 1, nil).Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code >= 300 {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}
	do(http.MethodPost, "/v1/indexes/posts", `{"path":"tags"}`)
	var txn TxnRequest
	want := map[string]string{}
	for i := 0; i < 20; i++ {
		doc := document.New(fmt.Sprintf("p%02d", i), map[string]any{
			"tags":   []any{fmt.Sprintf("t%d", i%3), "all"},
			"title":  fmt.Sprintf("Post %d", i),
			"rating": i,
		})
		wire, err := doc.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want[doc.ID] = string(wire)
		txn.Writes = append(txn.Writes, TxnWriteOp{Op: "put", Table: "posts", ID: doc.ID, Doc: doc})
	}
	body, err := json.Marshal(txn)
	if err != nil {
		t.Fatal(err)
	}

	before := document.TextDecodes()
	do(http.MethodPost, "/v1/transaction", string(body))
	for id, wire := range want {
		if got := strings.TrimSpace(do(http.MethodGet, "/v1/db/posts/"+id, "").Body.String()); got != wire {
			t.Errorf("GET %s = %s, want %s", id, got, wire)
		}
	}
	probe := "/v1/db/posts?q=" + url.QueryEscape(`{"tags":{"$contains":"t1"}}`)
	for i := 0; i < 2; i++ {
		var res struct{ Docs []json.RawMessage }
		if err := json.Unmarshal(do(http.MethodGet, probe, "").Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Docs) != 7 {
			t.Fatalf("tag probe returned %d documents, want 7", len(res.Docs))
		}
		for _, d := range res.Docs {
			var id struct {
				ID string `json:"_id"`
			}
			if err := json.Unmarshal(d, &id); err != nil || string(d) != want[id.ID] {
				t.Errorf("tag probe served %s, want %s", d, want[id.ID])
			}
		}
	}
	if n := document.TextDecodes() - before; n != 0 {
		t.Errorf("loading and serving decoded %d documents, want none", n)
	}

	var res struct{ Docs []json.RawMessage }
	if err := json.Unmarshal(do(http.MethodGet, "/v1/db/posts?q="+url.QueryEscape(`{"title":"Post 4"}`), "").Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 1 || string(res.Docs[0]) != want["p04"] {
		t.Errorf("scan on title served %s, want [%s]", res.Docs, want["p04"])
	}
	if n := document.TextDecodes() - before; n != 0 {
		t.Errorf("a scan on an unindexed field decoded %d documents, want none", n)
	}
}

// TestWrittenDocumentsStayText: with tag-probe queries active in
// InvaliDB, PATCHes and transaction patches — set, unset, inc, push and
// pull, at existing, nested and new paths — decode no document: the
// store splices each update into the record's text, InvaliDB reads its
// match keys and predicates off that text, and the response and the log
// copy it. Every stored document of the table is text afterwards.
func TestWrittenDocumentsStayText(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	h := srv.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := serve(h, method, path, body)
		if rec.Code >= 300 {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}
	do(http.MethodPost, "/v1/indexes/posts", `{"path":"tags"}`)
	const n = 12
	var txn TxnRequest
	for i := 0; i < n; i++ {
		doc := document.New(fmt.Sprintf("p%02d", i), map[string]any{
			"tags":   []any{fmt.Sprintf("t%d", i%3), "all"},
			"title":  fmt.Sprintf("Post %d", i),
			"rating": i,
		})
		txn.Writes = append(txn.Writes, TxnWriteOp{Op: "put", Table: "posts", ID: doc.ID, Doc: doc})
	}
	body, err := json.Marshal(txn)
	if err != nil {
		t.Fatal(err)
	}
	do(http.MethodPost, "/v1/transaction", string(body))
	for _, tag := range []string{"t0", "t1", "t2", "all"} {
		do(http.MethodGet, "/v1/db/posts?q="+url.QueryEscape(`{"tags":{"$contains":"`+tag+`"}}`), "")
	}
	waitFor(t, 10*time.Second, func() bool { return srv.InvaliDB().ActiveQueries() == 4 })
	settle(t, srv)

	before, invalidations := document.TextDecodes(), srv.Stats().Invalidations
	for i, spec := range []string{
		`{"set":{"tags":["t1","all"]}}`, `{"inc":{"rating":1}}`, `{"push":{"tags":"t2"}}`,
		`{"pull":{"tags":"all"}}`, `{"unset":["title"]}`, `{"set":{"meta.views":1,"rating":2.5}}`,
	} {
		do(http.MethodPatch, fmt.Sprintf("/v1/db/posts/p%02d", i), spec)
	}
	do(http.MethodPost, "/v1/transaction", `{"writes":[`+
		`{"op":"patch","table":"posts","id":"p06","spec":{"set":{"tags":["t0"]}}},`+
		`{"op":"patch","table":"posts","id":"p07","spec":{"inc":{"rating":-7},"push":{"tags":"t1"}}},`+
		`{"op":"patch","table":"posts","id":"p08","spec":{"pull":{"tags":"t2"},"set":{"title":"moved"}}}]}`)
	settle(t, srv)
	if n := document.TextDecodes() - before; n != 0 {
		t.Errorf("patches decoded %d documents, want none", n)
	}
	if srv.Stats().Invalidations == invalidations {
		t.Error("no patch invalidated a query: InvaliDB matched nothing")
	}
	for i := 0; i < n; i++ {
		doc, err := srv.router.Get("posts", fmt.Sprintf("p%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if doc.Fields != nil || doc.EncodedLen() == 0 {
			t.Errorf("%s v%d is stored with Fields, not as text", doc.ID, doc.Version)
		}
	}
	got := do(http.MethodGet, "/v1/db/posts/p07", "").Body.String()
	if want := `{"_id":"p07","_version":2,"rating":0,"tags":["t1","all","t1"],"title":"Post 7"}`; strings.TrimSpace(got) != want {
		t.Errorf("GET p07 = %s, want %s", got, want)
	}
}
