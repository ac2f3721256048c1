package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"quaestor/internal/store"
)

func TestFileLifecycle(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		content := []byte("<html>hello</html>")
		if err := srv.PutFile("index.html", "text/html", content); err != nil {
			t.Fatal(err)
		}
		got, ct, etag, ttl, err := srv.GetFile("index.html")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) || ct != "text/html" || etag == "" || ttl <= 0 {
			t.Errorf("file = %q ct=%q etag=%q ttl=%v", got, ct, etag, ttl)
		}
		// Overwriting bumps the version (new ETag) and flags the EBF.
		if err := srv.PutFile("index.html", "text/html", []byte("v2")); err != nil {
			t.Fatal(err)
		}
		_, _, etag2, _, err := srv.GetFile("index.html")
		if err != nil {
			t.Fatal(err)
		}
		if etag2 == etag {
			t.Error("overwrite kept the old ETag")
		}
		if !srv.EBFSnapshot().Contains(RecordKey(FilesTable, "index.html")) {
			t.Error("file overwrite not flagged in the EBF")
		}
		if err := srv.DeleteFile("index.html"); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := srv.GetFile("index.html"); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("deleted file read: %v", err)
		}
	})
}

func TestFileHTTP(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		h := srv.Handler()

		put := httptest.NewRequest(http.MethodPut, "/v1/files/app.js", strings.NewReader("console.log(1)"))
		put.Header.Set("Content-Type", "application/javascript")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, put)
		if rec.Code != http.StatusOK {
			t.Fatalf("PUT = %d %s", rec.Code, rec.Body.String())
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/files/app.js", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET = %d", rec.Code)
		}
		if rec.Body.String() != "console.log(1)" {
			t.Errorf("body = %q", rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/javascript" {
			t.Errorf("content type = %q", ct)
		}
		if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "max-age=") {
			t.Errorf("files must be cacheable: %q", cc)
		}
		etag := rec.Header().Get("ETag")
		// Conditional fetch -> 304.
		cond := httptest.NewRequest(http.MethodGet, "/v1/files/app.js", nil)
		cond.Header.Set("If-None-Match", etag)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, cond)
		if rec.Code != http.StatusNotModified {
			t.Errorf("conditional GET = %d", rec.Code)
		}
		// Delete.
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/files/app.js", nil))
		if rec.Code != http.StatusNoContent {
			t.Errorf("DELETE = %d", rec.Code)
		}
		// Missing file -> 404; bad names -> 400.
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/files/app.js", nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("missing GET = %d", rec.Code)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/files/", nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("empty name = %d", rec.Code)
		}
	})
}

func TestFileThroughCDNTierPurge(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		if err := srv.PutFile("style.css", "text/css", []byte("body{}")); err != nil {
			t.Fatal(err)
		}
		var purged []string
		srv.AddPurger(PurgerFunc(func(path string) { purged = append(purged, path) }))
		// A read issues a TTL; the overwrite must purge the file's path.
		if _, _, _, _, err := srv.GetFile("style.css"); err != nil {
			t.Fatal(err)
		}
		if err := srv.PutFile("style.css", "text/css", []byte("body{color:red}")); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, p := range purged {
			if p == RecordPath(FilesTable, "style.css") {
				found = true
			}
		}
		if !found {
			t.Errorf("file overwrite did not purge its path: %v", purged)
		}
	})
}

// TestFilesOnEveryShard stores 16 files on a 4-shard server: file names
// route by id, so the reserved table must exist on every shard, not only
// on shard 0.
func TestFilesOnEveryShard(t *testing.T) {
	srv := newTestServer(t, 4, nil)
	owners := map[int]bool{}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("asset-%02d.js", i)
		owners[srv.router.ShardFor(name)] = true
		if err := srv.PutFile(name, "text/javascript", []byte(name)); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		got, _, _, _, err := srv.GetFile(name)
		if err != nil || string(got) != name {
			t.Errorf("get %s = %q, %v", name, got, err)
		}
	}
	if len(owners) < 2 {
		t.Fatalf("16 names landed on %d shard(s); the test needs a spread", len(owners))
	}
}

// filler streams n copies of one byte without holding them.
type filler struct {
	n int64
	b byte
}

func (f *filler) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.n {
		p = p[:f.n]
	}
	for i := range p {
		p[i] = f.b
	}
	f.n -= int64(len(p))
	return len(p), nil
}

// TestRequestBodyOverLimitIsRefused: a body past the limit is answered 413
// and nothing of it is applied: a file is not stored cut short, a document
// is not inserted.
func TestRequestBodyOverLimitIsRefused(t *testing.T) {
	h := newTestServer(t, 1, nil).Handler()
	for _, tc := range []struct {
		name, method, path, readBack string
		body                         io.Reader
	}{
		{"file", http.MethodPut, "/v1/files/x", "/v1/files/x", &filler{maxRequestBody + 1, 'a'}},
		{"document", http.MethodPost, "/v1/db/posts", "/v1/db/posts/big", io.MultiReader(
			strings.NewReader(`{"_id":"big","s":"`), &filler{maxRequestBody, 'a'}, strings.NewReader(`"}`))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, tc.body))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s past %d bytes = %d, want 413", tc.method, tc.path, maxRequestBody, rec.Code)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.readBack, nil))
			if rec.Code != http.StatusNotFound {
				t.Errorf("GET %s after the refused write = %d, want 404", tc.readBack, rec.Code)
			}
		})
	}
}

// TestReadBody sends raw requests over the wire to a handler that reads
// its body with readBody: an exact Content-Length is read into a buffer
// of that size, a chunked body whole, a body shorter than its
// Content-Length is a 400, and a length claimed but never sent costs at
// most maxBodyPresize.
func TestReadBody(t *testing.T) {
	var capacity atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r, nil)
		capacity.Store(int64(cap(body)))
		if err != nil {
			writeError(w, err)
			return
		}
		_, _ = w.Write(body)
	}))
	defer ts.Close()
	for _, tc := range []struct {
		name, head, body string
		status           int
		maxCap           int64
	}{
		{"exact", "Content-Length: 11", "hello world", http.StatusOK, 12},
		{"empty", "Content-Length: 0", "", http.StatusOK, 1},
		{"chunked", "Transfer-Encoding: chunked", "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n", http.StatusOK, 1024},
		{"short", "Content-Length: 100", "only ten b", http.StatusBadRequest, 101},
		{"claimed", fmt.Sprintf("Content-Length: %d", maxRequestBody), "only ten b", http.StatusBadRequest, maxBodyPresize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: x\r\n%s\r\n\r\n%s", tc.head, tc.body); err != nil {
				t.Fatal(err)
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, got, tc.status)
			}
			if tc.status == http.StatusOK && string(got) != "hello world" && tc.name != "empty" {
				t.Errorf("read %q, want %q", got, "hello world")
			}
			if c := capacity.Load(); c > tc.maxCap {
				t.Errorf("the body's buffer holds %d bytes, want at most %d", c, tc.maxCap)
			}
		})
	}
}

// TestDecodedBodiesOutliveTheirBuffer: request bodies are read into
// pooled buffers, so a later body of the same size overwrites an earlier
// one. What the earlier one stored must not change with it: no decoded
// string may point into the body, and a document stored as text keeps a
// copy of it — a transaction's two, one with whitespace in its text,
// are served and decoded by a scan only after every buffer was reused.
// Four writers at once (run with -race) also share the pools.
func TestDecodedBodiesOutliveTheirBuffer(t *testing.T) {
	h := newTestServer(t, 1, nil).Handler()
	send := func(method, path, body string) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code >= 300 {
			return fmt.Errorf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return nil
	}
	const letters = "abcdefghijklmnop"
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(letters); i += 4 {
				s := strings.Repeat(letters[i:i+1], 8)
				if err := errors.Join(
					send(http.MethodPost, "/v1/transaction", `{"writes":[{"op":"put","table":"posts","id":"t`+s+`","doc":{"k`+s+`":"v`+s+`","a":["e`+s+`"]}},`+
						`{"op":"put","table":"posts","id":"u`+s+`","doc":{"a":["f`+s+`"], "k`+s+`" : "v`+s+`"}}]}`),
					send(http.MethodPut, "/v1/db/posts/p"+s, `{"k`+s+`":"v`+s+`"}`),
					send(http.MethodPatch, "/v1/db/posts/p"+s, `{"Set":{"x`+s+`":"y`+s+`"}}`),
				); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range letters {
		s := strings.Repeat(letters[i:i+1], 8)
		for path, want := range map[string]string{
			"/v1/db/posts/t" + s: `{"_id":"t` + s + `","_version":1,"a":["e` + s + `"],"k` + s + `":"v` + s + `"}`,
			"/v1/db/posts/u" + s: `{"_id":"u` + s + `","_version":1,"a":["f` + s + `"],"k` + s + `":"v` + s + `"}`,
			"/v1/db/posts/p" + s: `{"_id":"p` + s + `","_version":2,"k` + s + `":"v` + s + `","x` + s + `":"y` + s + `"}`,
			// A scan reads the transaction's documents' fields, decoded
			// from the text each kept, after every buffer was reused.
			"/v1/db/posts?q=" + url.QueryEscape(`{"k`+s+`":"v`+s+`","a":{"$exists":true}}`): `{"rep":"object-list","ids":["t` + s + `","u` + s + `"],"docs":[` +
				`{"_id":"t` + s + `","_version":1,"a":["e` + s + `"],"k` + s + `":"v` + s + `"},` +
				`{"_id":"u` + s + `","_version":1,"a":["f` + s + `"],"k` + s + `":"v` + s + `"}],"count":2}`,
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if got := strings.TrimSpace(rec.Body.String()); got != want {
				t.Errorf("GET %s = %s, want %s", path, got, want)
			}
		}
	}
}

// TestInsertAckMatchesEncodingJSON: the 201 to an insert carries exactly
// the bytes encoding/json wrote for map[string]string{"id": id},
// HTML escaping and trailing newline included.
func TestInsertAckMatchesEncodingJSON(t *testing.T) {
	h := newTestServer(t, 1, nil).Handler()
	for i, id := range []string{"p1", "<a&b>", `q"uo\te`, "tab\tnl\n\x01\x7f", "\u2028\u2029", "é😀", "\xff\xfe"} {
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusCreated, map[string]string{"id": id})
		got := httptest.NewRecorder()
		writeEncoded(got, http.StatusCreated, insertAck(id))
		if got.Body.String() != want.Body.String() {
			t.Errorf("insertAck(%q) = %q, encoding/json wrote %q", id, got.Body, want.Body)
		}

		// Through the handler: the id as the decoder stored it.
		doc, err := json.Marshal(map[string]any{"_id": id, "n": i})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/db/posts", bytes.NewReader(doc)))
		var stored struct {
			ID string `json:"_id"`
		}
		if err := json.Unmarshal(doc, &stored); err != nil {
			t.Fatal(err)
		}
		ack, _ := json.Marshal(map[string]string{"id": stored.ID})
		if rec.Code != http.StatusCreated || rec.Body.String() != string(ack)+"\n" {
			t.Errorf("insert %q answered %d %q, want 201 %q", id, rec.Code, rec.Body, string(ack)+"\n")
		}
	}
}
