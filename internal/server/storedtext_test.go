package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"quaestor/internal/document"
)

// TestLoadedDocumentsAreServedUndecoded: documents loaded through
// POST /v1/transaction and then served by GET and by a tag-probe query —
// the benchmark's load and read paths — are never decoded into values.
// The index reads each document's tags from its text, the probe's
// residual is elided, and the wire form served is the text the document
// arrived in. A query whose residual reads a field does decode, which
// shows the counter counts.
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

	do(http.MethodGet, "/v1/db/posts?q="+url.QueryEscape(`{"title":"Post 4"}`), "")
	if n := document.TextDecodes() - before; n == 0 {
		t.Error("a scan on an unindexed field decoded no document")
	}
}
