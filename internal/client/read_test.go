package client

import (
	"net/http"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
)

// TestBoundedQueryHonoursBound: a query's cached copy answers it only
// within the query's staleness bound, exactly like a record's copy answers
// a bounded read: bound 0 revalidates end to end, a session bound refuses a
// copy held for longer, and a copy of unknown staleness answers no bound.
func TestBoundedQueryHonoursBound(t *testing.T) {
	q := query.New("posts", query.Contains("tags", "x"))

	t.Run("bound zero", func(t *testing.T) {
		w := newWire(t)
		w.insert(t, "posts", "p1", "x")
		c := w.dial(t)
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
		before := w.exchanges()
		if _, err := c.QueryWith(q, WithMaxStaleness(0)); err != nil {
			t.Fatal(err)
		}
		if got := w.exchanges() - before; got != 1 {
			t.Fatalf("a bound-0 query of a cached result made %d exchanges, want 1", got)
		}
		if ex := w.last(t); ex.path != "/v1/db/posts" || !ex.noCache {
			t.Errorf("bound-0 query: %+v, want a no-cache GET of the query", ex)
		}
	})

	t.Run("session bound", func(t *testing.T) {
		w := newWire(t)
		w.insert(t, "posts", "p1", "x")
		c, err := Dial(&Options{BaseURL: w.ts.URL, Transport: w.ts.Client().Transport, Clock: w.clk.Now,
			RefreshInterval: time.Hour, MaxStaleness: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
		before := w.exchanges()
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
		if got := w.exchanges() - before; got != 0 {
			t.Fatalf("a copy held for 0 s cost %d exchanges within a 1 s bound, want 0", got)
		}
		w.clk.Advance(2 * time.Second)
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
		if got := w.exchanges() - before; got != 1 {
			t.Errorf("a copy held for 2 s answered a session bounded at 1 s (%d exchanges, want 1)", got)
		}
	})

	t.Run("unknown staleness", func(t *testing.T) {
		s := newStack(t, nil)
		surface := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(server.HeaderReplica, "bootstrapping")
			s.cdn.ServeHTTP(w, r)
		})
		c := s.dial(t, &Options{Transport: NewHandlerTransport(surface)})
		if err := s.srv.Insert("posts", document.New("p1", map[string]any{"tags": []any{"x"}})); err != nil {
			t.Fatal(err)
		}
		hits := func() uint64 { return c.Stats().CacheHits }
		for i := 0; i < 2; i++ {
			if _, err := c.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		if hits() != 1 {
			t.Fatalf("cache hits = %d after two unbounded queries, want 1 (the copy is cached)", hits())
		}
		if _, err := c.QueryWith(q, WithMaxStaleness(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if hits() != 1 {
			t.Error("a query copy of unknown staleness answered a query bounded at 1 h")
		}
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
		if hits() != 2 {
			t.Error("an unbounded query was not answered from the cached copy")
		}
	})
}

// shortLivedRecords rewrites the freshness lifetime of every record
// response to one second, leaving query responses as the origin sent them.
type shortLivedRecords struct{ http.ResponseWriter }

func (w shortLivedRecords) WriteHeader(status int) {
	if status == http.StatusOK || status == http.StatusNotModified {
		w.Header().Set("Cache-Control", "public, max-age=1")
	}
	w.ResponseWriter.WriteHeader(status)
}

// TestIDListHitReassemblesMembers: a cached id list is a list, not its
// members. A member changed by another session is read through its own
// entry, so the list never hands back a version older than a read of that
// record already returned; a member deleted by another session makes a
// list the browser cache answered refetch once, end to end.
func TestIDListHitReassemblesMembers(t *testing.T) {
	q := query.New("posts", query.Contains("tags", "x"))

	t.Run("changed member", func(t *testing.T) {
		s := newStack(t, &server.Options{Representation: server.RepAlwaysIDs})
		if err := s.srv.Insert("posts", document.New("p1", map[string]any{"tags": []any{"x"}, "title": "old"})); err != nil {
			t.Fatal(err)
		}
		a := s.dial(t, &Options{RefreshInterval: time.Nanosecond})
		b := s.dial(t, nil)
		if res, err := a.Query(q); err != nil || res.Representation != ttl.IDList || len(res.Docs) != 1 {
			t.Fatalf("first query = %+v, %v; want an id list of one", res, err)
		}
		if e, ok := a.local.GetStale(QueryPath(q)); !ok || len(e.Value.(*Result).Docs) != 0 {
			t.Fatalf("cached id list = %+v, %v; want the ids alone", e, ok)
		}
		if _, err := b.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"title": "new"}}); err != nil {
			t.Fatal(err)
		}
		doc, err := a.Read("posts", "p1")
		if err != nil {
			t.Fatal(err)
		}
		if title, _ := doc.Get("title"); title != "new" {
			t.Fatalf("read after the update returned title %v, want new", title)
		}
		res, err := a.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Docs) != 1 {
			t.Fatalf("query returned %d docs, want 1", len(res.Docs))
		}
		if title, _ := res.Docs[0].Get("title"); title != "new" {
			t.Errorf("query returned p1 with title %v after a read returned new (monotonic reads)", title)
		}
		hits := a.Stats().CacheHits
		if _, err := a.Query(q); err != nil {
			t.Fatal(err)
		}
		if a.Stats().CacheHits == hits {
			t.Error("a repeated query was not answered from the cached list")
		}
	})

	// The cached list is an id list; the refetch may come back in either
	// representation (the adaptive policy weighs the list's size and change
	// rate, and a delete moves both).
	for _, refetch := range []struct {
		name string
		rep  server.RepresentationPolicy
		want ttl.Representation
	}{
		{"deleted member, refetched as id list", server.RepAlwaysIDs, ttl.IDList},
		{"deleted member, refetched as object list", server.RepAlwaysObjects, ttl.ObjectList},
	} {
		t.Run(refetch.name, func(t *testing.T) {
			w := newWireWith(t, server.Options{Representation: refetch.rep})
			listSrv := server.New(w.db, &server.Options{Clock: w.clk.Now, Representation: server.RepAlwaysIDs})
			t.Cleanup(listSrv.Close)
			origin, listed := w.srv.Handler(), listSrv.Handler()
			records := func(rw http.ResponseWriter, r *http.Request) bool {
				if r.Method != http.MethodGet || r.URL.Path == "/v1/db/posts" {
					return false
				}
				origin.ServeHTTP(shortLivedRecords{rw}, r)
				return true
			}
			w.setFront(func(rw http.ResponseWriter, r *http.Request) bool {
				if r.Method == http.MethodGet && r.URL.Path == "/v1/db/posts" {
					listed.ServeHTTP(rw, r)
					return true
				}
				return records(rw, r)
			})
			w.insert(t, "posts", "p1", "x")
			w.insert(t, "posts", "p2", "x")
			a, err := Dial(&Options{BaseURL: w.ts.URL, Transport: w.ts.Client().Transport, Clock: w.clk.Now, RefreshInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			if res, err := a.Query(q); err != nil || res.Representation != ttl.IDList || len(res.IDs) != 2 {
				t.Fatalf("first query = %+v, %v; want an id list of two", res, err)
			}
			w.setFront(records)
			if err := w.dial(t).Delete("posts", "p2"); err != nil {
				t.Fatal(err)
			}
			w.clk.Advance(2 * time.Second) // the members' entries expire, the list's does not

			before := w.exchanges()
			res, err := a.Query(q)
			if err != nil {
				t.Fatalf("query after a member was deleted: %v", err)
			}
			if res.Representation != refetch.want || len(res.IDs) != 1 || res.IDs[0] != "p1" ||
				len(res.Docs) != 1 || res.Docs[0].ID != "p1" {
				t.Errorf("query returned %v ids %v, %d docs; want the refetched %v [p1]",
					res.Representation, res.IDs, len(res.Docs), refetch.want)
			}
			w.mu.Lock()
			var refetches []exchange
			for _, ex := range w.seen[before:] {
				if ex.path == "/v1/db/posts" {
					refetches = append(refetches, ex)
				}
			}
			w.mu.Unlock()
			if len(refetches) != 1 || !refetches[0].noCache || refetches[0].status != http.StatusOK {
				t.Errorf("list exchanges %+v, want the one no-cache refetch answered 200", refetches)
			}
		})
	}
}

// cachedAnswer queries q twice through c, the second time answered from
// the browser cache, and returns that second answer.
func cachedAnswer(t *testing.T, c *Client, q *query.Query) *Result {
	t.Helper()
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	hits := c.Stats().CacheHits
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().CacheHits == hits {
		t.Fatal("the repeated query was not answered from the browser cache")
	}
	return res
}

// TestIDListHitReturnsEachMemberOnce: assembling an id list appends its
// members to the answer, never to the cached list, so every answer the
// cache gives holds exactly one document per id.
func TestIDListHitReturnsEachMemberOnce(t *testing.T) {
	w := newWireWith(t, server.Options{Representation: server.RepAlwaysIDs})
	for _, id := range []string{"p1", "p2", "p3"} {
		w.insert(t, "posts", id, "x")
	}
	c := w.dial(t)
	q := query.New("posts", query.Contains("tags", "x"))
	for i := 0; i < 2; i++ {
		res := cachedAnswer(t, c, q)
		if res.Representation != ttl.IDList || len(res.IDs) != 3 || len(res.Docs) != len(res.IDs) {
			t.Fatalf("answer %d: %v with %d ids and %d docs, want an id list of 3 with 3 docs",
				i, res.Representation, len(res.IDs), len(res.Docs))
		}
	}
}

// TestObjectListHitSharesMemberDocuments: an object list and its
// members' record entries hold one copy of each document, and a cached
// answer hands that copy out.
func TestObjectListHitSharesMemberDocuments(t *testing.T) {
	w := newWireWith(t, server.Options{Representation: server.RepAlwaysObjects})
	for _, id := range []string{"p1", "p2", "p3"} {
		w.insert(t, "posts", id, "x")
	}
	c := w.dial(t)
	res := cachedAnswer(t, c, query.New("posts", query.Contains("tags", "x")))
	if res.Representation != ttl.ObjectList || len(res.Docs) != 3 {
		t.Fatalf("answer: %v with %d docs, want an object list of 3", res.Representation, len(res.Docs))
	}
	for _, d := range res.Docs {
		e, ok := c.local.GetStale(server.RecordPath("posts", d.ID))
		if !ok || e.Value.(*document.Document) != d {
			t.Errorf("%s: the record entry does not hold the list's document", d.ID)
		}
		if doc, err := c.Read("posts", d.ID); err != nil || doc != d {
			t.Errorf("%s: a read returned %p (%v), want the list's document %p", d.ID, doc, err, d)
		}
	}
}

// TestSharedDocumentsAppendLeavesNextAnswerAlone: appending to one
// answer's Docs neither changes the cached list nor an answer given after
// it, though all of them share the documents.
func TestSharedDocumentsAppendLeavesNextAnswerAlone(t *testing.T) {
	w := newWireWith(t, server.Options{Representation: server.RepAlwaysObjects})
	for _, id := range []string{"p1", "p2", "p3"} {
		w.insert(t, "posts", id, "x")
	}
	c := w.dial(t)
	q := query.New("posts", query.Contains("tags", "x"))
	first := cachedAnswer(t, c, q)
	first.Docs = append(first.Docs, document.New("mine", nil))
	next, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Docs) != 3 {
		t.Fatalf("the next answer has %d docs, want 3", len(next.Docs))
	}
	next.Docs = append(next.Docs, document.New("theirs", nil))
	if got := first.Docs[3].ID; got != "mine" {
		t.Errorf("appending to the next answer overwrote the first answer's own document with %s", got)
	}
	for i := range 3 {
		if first.Docs[i] != next.Docs[i] {
			t.Errorf("doc %d: two cached answers hold different copies", i)
		}
	}
}
