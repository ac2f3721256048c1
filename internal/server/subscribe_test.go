package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

func TestCommitValidation(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		insertPost(t, srv, "p1", "x")
		doc, err := srv.router.Get("posts", "p1")
		if err != nil {
			t.Fatal(err)
		}

		// Valid read set commits.
		res, err := srv.Commit(TxnRequest{
			Reads: map[string]int64{"posts/p1": doc.Version},
			Writes: []TxnWriteOp{{
				Op: "patch", Table: "posts", ID: "p1",
				Spec: &store.UpdateSpec{Set: map[string]any{"rating": 9}},
			}},
		})
		if err != nil || !res.Committed {
			t.Fatalf("commit = %+v, %v", res, err)
		}

		// Stale read set aborts with the conflicting key.
		res, err = srv.Commit(TxnRequest{
			Reads: map[string]int64{"posts/p1": doc.Version}, // now stale
			Writes: []TxnWriteOp{{
				Op: "patch", Table: "posts", ID: "p1",
				Spec: &store.UpdateSpec{Set: map[string]any{"rating": 1}},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed || len(res.Conflicts) != 1 || res.Conflicts[0] != "posts/p1" {
			t.Errorf("stale commit = %+v", res)
		}
		// The aborted write must not have applied.
		after, _ := srv.router.Get("posts", "p1")
		if v, _ := after.Get("rating"); v != int64(9) {
			t.Errorf("aborted write applied: rating = %v", v)
		}
	})
}

func TestCommitObservedAbsence(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		// Transaction observed "ghost" as absent (version 0); creating it
		// concurrently must conflict.
		insertPost(t, srv, "ghost", "x")
		res, err := srv.Commit(TxnRequest{Reads: map[string]int64{"posts/ghost": 0}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			t.Error("commit with violated absence assumption succeeded")
		}
		// Observing true absence commits.
		res, err = srv.Commit(TxnRequest{Reads: map[string]int64{"posts/really-absent": 0}})
		if err != nil || !res.Committed {
			t.Errorf("true absence should validate: %+v %v", res, err)
		}
	})
}

func TestCommitErrors(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		if _, err := srv.Commit(TxnRequest{Reads: map[string]int64{"malformed": 1}}); err == nil {
			t.Error("malformed read-set key accepted")
		}
		if _, err := srv.Commit(TxnRequest{Writes: []TxnWriteOp{{Op: "put", Table: "posts", ID: "x"}}}); err == nil {
			t.Error("put without doc accepted")
		}
		if _, err := srv.Commit(TxnRequest{Writes: []TxnWriteOp{{Op: "warp", Table: "posts", ID: "x"}}}); err == nil {
			t.Error("unknown op accepted")
		}
		// Transactional delete of an absent record is a no-op, not an error.
		res, err := srv.Commit(TxnRequest{Writes: []TxnWriteOp{{Op: "delete", Table: "posts", ID: "nope"}}})
		if err != nil || !res.Committed {
			t.Errorf("idempotent delete failed: %+v %v", res, err)
		}
	})
}

func TestHTTPTransactionEndpoint(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		insertPost(t, srv, "p1", "x")
		h := srv.Handler()
		body := `{"reads":{"posts/p1":1},"writes":[{"op":"patch","table":"posts","id":"p1","spec":{"Set":{"rating":7}}}]}`
		req := httptest.NewRequest(http.MethodPost, "/v1/transaction", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("commit over HTTP = %d %s", rec.Code, rec.Body.String())
		}
		var res TxnResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || !res.Committed {
			t.Fatalf("result = %+v %v", res, err)
		}
		// Replay with the stale version: 409.
		req = httptest.NewRequest(http.MethodPost, "/v1/transaction", strings.NewReader(body))
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusConflict {
			t.Errorf("stale commit = %d", rec.Code)
		}
	})
}

func TestServerSubscribe(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	q := query.New("posts", query.Contains("tags", "x"))
	sub, err := srv.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	insertPost(t, srv, "p1", "x")
	select {
	case n := <-sub.Events():
		if n.Doc.ID != "p1" {
			t.Errorf("event = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event delivered")
	}
	sub.Close()
	if _, ok := <-sub.Events(); ok {
		t.Error("closed subscription channel still open")
	}
	// Unsubscribing twice must be safe.
	sub.Close()
}

func TestHTTPSubscribeSSE(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/subscribe?table=posts&q=" + `{"tags":{"$contains":"x"}}`)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type = %q", ct)
	}

	go func() {
		time.Sleep(50 * time.Millisecond)
		_ = srv.Insert("posts", document.New("p1", map[string]any{"tags": []any{"x"}}))
	}()

	reader := bufio.NewReader(resp.Body)
	deadline := time.After(5 * time.Second)
	lineCh := make(chan string, 1)
	go func() {
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "data: ") {
				lineCh <- strings.TrimSpace(strings.TrimPrefix(line, "data: "))
				return
			}
		}
	}()
	select {
	case payload := <-lineCh:
		var ev SubscriptionEvent
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", payload, err)
		}
		if ev.ID != "p1" || ev.Type != "add" {
			t.Errorf("event = %+v", ev)
		}
	case <-deadline:
		t.Fatal("no SSE event received")
	}
}

func TestHTTPSubscribeValidation(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/subscribe", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing table = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/subscribe?table=posts", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST subscribe = %d", rec.Code)
	}
}
