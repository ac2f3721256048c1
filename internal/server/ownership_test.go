package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/replication"
	"quaestor/internal/store"
	"quaestor/internal/wal"
)

// handOuts remembers every document pointer handed out during a run with
// its encoding at the time, so the end of the run can check that none of
// them changed: document.Document's ownership rule says a handed-out
// document is read-only for everyone, the store included.
type handOuts struct {
	mu   sync.Mutex
	seen map[*document.Document]string
}

func fingerprint(d *document.Document) string {
	return fmt.Sprintf("%s@%d %s", d.ID, d.Version, document.Canonical(d.Body()))
}

func (h *handOuts) add(t *testing.T, where string, docs ...*document.Document) {
	for _, d := range docs {
		if d == nil {
			continue
		}
		fp := fingerprint(d)
		h.mu.Lock()
		if prev, ok := h.seen[d]; !ok {
			h.seen[d] = fp
		} else if prev != fp {
			t.Errorf("%s handed out %s, which was %s when first handed out", where, fp, prev)
		}
		h.mu.Unlock()
	}
}

// follow records the Before and After of every change event st delivers
// until the returned stop is called.
func (h *handOuts) follow(t *testing.T, name string, st *store.Store) (stop func()) {
	events, cancel := st.SubscribeNamed(name)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			h.add(t, name+" event", ev.Before, ev.After)
		}
	}()
	return func() { cancel(); <-done }
}

// referenceJSON is a document's wire form as encoding/json writes it:
// the fields with "_id" and "_version" added, as one map.
func referenceJSON(d *document.Document) ([]byte, error) {
	body := make(map[string]any, len(d.Body())+2)
	for k, v := range d.Body() {
		body[k] = v
	}
	body["_id"], body["_version"] = d.ID, d.Version
	return json.Marshal(body)
}

// verify checks that no handed-out document changed, and that each one's
// wire form, which the store builds once and keeps, is still the
// reference encoding of its content.
func (h *handOuts) verify(t *testing.T) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for d, fp := range h.seen {
		if got := fingerprint(d); got != fp {
			t.Errorf("handed out as %s, now encodes %s", fp, got)
		}
		got, err := d.AppendJSON(nil)
		want, refErr := referenceJSON(d)
		if err != nil || refErr != nil || !bytes.Equal(got, want) {
			t.Errorf("%s has the wire form %s (%v); want %s (%v)", fp, got, err, want, refErr)
		}
	}
}

// TestStoredDocumentsAreNeverMutated is the referee of the ownership
// rule. A 2-shard durable node serves puts, inserts, updates, deletes, a
// committed and two refused transactions and activating queries (one of
// them sorted and limited, so stateful) over HTTP to concurrent readers,
// while an in-process replica per shard shares the primary's documents.
// The node is then reopened from its WAL. Every document any of them
// handed out must encode at the end as it did when handed out, and its
// kept wire form must be the reference encoding.
func TestStoredDocumentsAreNeverMutated(t *testing.T) {
	dir := t.TempDir()
	opts := cluster.Options{Shards: 2, Store: store.Options{DataDir: dir, Durability: store.Durability{Fsync: wal.FsyncNever}}}
	router, err := cluster.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.CreateTable("posts"); err != nil {
		t.Fatal(err)
	}
	if err := router.CreateIndex("posts", "tags"); err != nil {
		t.Fatal(err)
	}
	srv := NewCluster(router, nil)
	ts := httptest.NewServer(srv.Handler())
	h := &handOuts{seen: map[*document.Document]string{}}
	var stops []func()
	for i, st := range router.Stores() {
		stops = append(stops, h.follow(t, fmt.Sprintf("primary %d", i), st))
	}

	send := func(method, path, body string, want ...int) {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, code := range want {
			if resp.StatusCode == code {
				return
			}
		}
		t.Fatalf("%s %s = %d: %s", method, path, resp.StatusCode, got)
	}
	for i := 0; i < 20; i++ {
		send(http.MethodPost, "/v1/db/posts", fmt.Sprintf(`{"_id":"p%d","tags":["t%d"],"rating":%d}`, i, i%3, i), http.StatusCreated)
	}

	// One in-process replica per shard, bootstrapped by a snapshot import
	// and then fed the primary's own after-images.
	var replicas []*store.Store
	var pumps sync.WaitGroup
	for i, st := range router.Stores() {
		rep := store.MustOpen(nil)
		rep.SetReadOnly(true)
		replicas = append(replicas, rep)
		stops = append(stops, h.follow(t, fmt.Sprintf("replica %d", i), rep))
		var snap bytes.Buffer
		if _, _, err := st.ExportSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		info, err := rep.ImportSnapshot(&snap)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := st.SubscribeFrom("replica", info.Seq)
		if err != nil {
			t.Fatal(err)
		}
		stops = append(stops, sub.Cancel)
		pumps.Add(1)
		go func() {
			defer pumps.Done()
			for batch := range sub.Events() {
				if _, err := rep.ApplyReplicated(replication.EventsToRecords(batch)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	stopReading := sync.OnceFunc(func() {
		close(stopReaders)
		readers.Wait()
	})
	shutdown := sync.OnceFunc(func() {
		stopReading()
		for _, stop := range stops {
			stop()
		}
		pumps.Wait()
		for _, rep := range replicas {
			rep.Close()
		}
		ts.Close()
		srv.Close()
		router.Close()
	})
	t.Cleanup(shutdown)
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			queries := []*query.Query{ // a Query caches its key: one set per reader
				query.New("posts", query.Contains("tags", "t1")),
				query.New("posts", query.Contains("tags", "t2")).Sorted(query.Desc("rating")).Sliced(0, 3),
				query.New("posts", query.Gte("rating", int64(5))).Sorted(query.Asc("rating")),
			}
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				id := fmt.Sprintf("p%d", rnd.Intn(24))
				q := queries[rnd.Intn(len(queries))]
				if res, err := srv.Read("posts", id); err == nil {
					h.add(t, "Server.Read", res.Doc)
				}
				if d, err := router.Get("posts", id); err == nil {
					h.add(t, "Get", d)
				}
				if res, err := srv.Query(q); err == nil {
					h.add(t, "Server.Query", res.Docs...)
				}
				if docs, _, err := router.QueryPlanned(q); err == nil {
					h.add(t, "Router.QueryPlanned", docs...)
				}
				for _, path := range []string{"/v1/db/posts/" + id, "/v1/db/posts?q=" + url.QueryEscape(`{"tags":{"$contains":"t2"}}`) + "&sort=-rating&limit=3"} {
					if resp, err := http.Get(ts.URL + path); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(r)
	}

	for round := 0; round < 10; round++ {
		a, b := fmt.Sprintf("p%d", round), fmt.Sprintf("p%d", 20+round%4)
		send(http.MethodPut, "/v1/db/posts/"+a, fmt.Sprintf(`{"tags":["t%d","x"],"rating":%d}`, round%3, 30-round), http.StatusOK)
		send(http.MethodPatch, "/v1/db/posts/"+a, `{"set":{"seen":true},"inc":{"rating":1},"push":{"tags":"y"}}`, http.StatusOK)
		send(http.MethodPost, "/v1/db/posts", fmt.Sprintf(`{"_id":%q,"tags":["t2"],"rating":%d}`, b, round), http.StatusCreated, http.StatusConflict)
		doc, err := srv.Update("posts", b, store.UpdateSpec{Set: map[string]any{"nested": map[string]any{"round": round}}, Push: map[string]any{"tags": "z"}})
		if err != nil {
			t.Fatal(err)
		}
		h.add(t, "Update", doc)
		send(http.MethodPost, "/v1/transaction", fmt.Sprintf(`{"writes":[`+
			`{"op":"put","table":"posts","id":"tx%d","doc":{"tags":["t1"],"rating":1}},`+
			`{"op":"patch","table":"posts","id":%q,"spec":{"inc":{"rating":2},"pull":{"tags":"y"}}},`+
			`{"op":"delete","table":"posts","id":%q}]}`, round, a, b), http.StatusOK)
		// Refused: the patch sets a field before its inc fails on a string,
		// and a read set that no longer holds.
		send(http.MethodPost, "/v1/transaction", fmt.Sprintf(`{"writes":[`+
			`{"op":"patch","table":"posts","id":%q,"spec":{"set":{"half":1},"push":{"tags":"w"}}},`+
			`{"op":"patch","table":"posts","id":%q,"spec":{"set":{"half":2},"inc":{"tags":1}}}]}`, a, a), http.StatusBadRequest)
		send(http.MethodPost, "/v1/transaction", fmt.Sprintf(`{"reads":{"posts/%s":1},"writes":[`+
			`{"op":"patch","table":"posts","id":%q,"spec":{"set":{"half":3}}}]}`, a, a), http.StatusConflict)
		send(http.MethodDelete, "/v1/db/posts/"+fmt.Sprintf("tx%d", round), "", http.StatusNoContent)
	}
	stopReading()
	if !srv.Settle(10 * time.Second) {
		t.Fatal("invalidation pipeline did not settle")
	}

	// The replicas hold the primary's documents themselves.
	for i, st := range router.Stores() {
		waitFor(t, 10*time.Second, func() bool { return replicas[i].LastSeq() >= st.LastSeq() })
		docs, err := replicas[i].Query(query.New("posts", nil))
		if err != nil {
			t.Fatal(err)
		}
		h.add(t, fmt.Sprintf("replica %d Query", i), docs...)
	}
	shutdown()

	// Reopen from the WAL and write over every replayed document.
	router, err = cluster.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	docs, err := router.Query(query.New("posts", nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("nothing recovered")
	}
	h.add(t, "recovered Query", docs...)
	for _, d := range docs {
		after, err := router.Update("posts", d.ID, store.UpdateSpec{Inc: map[string]float64{"rating": 1}, Push: map[string]any{"tags": "r"}})
		if err != nil {
			t.Fatal(err)
		}
		h.add(t, "recovered Update", after)
	}
	h.verify(t)
}
