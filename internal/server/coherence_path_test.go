package server

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/ebf"
	"quaestor/internal/testutil"
	"quaestor/internal/ttl"
)

// serve runs one request through h and returns the recorded response.
func serve(h http.Handler, method, target, body string, header ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader([]byte(body)))
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// reflectiveEBFBody is the /v1/ebf body as the handler built it before the
// pooled pass: the snapshot as a Filter, marshaled, base64-encoded into a
// string and encoded by encoding/json. Fingerprints are listed in ascending
// order (see sortRecent).
func reflectiveEBFBody(t *testing.T, snap ebf.Snapshot) string {
	t.Helper()
	slices.Sort(snap.Recent)
	resp := EBFResponse{
		Filter:      base64.StdEncoding.EncodeToString(snap.Filter.Marshal()),
		GeneratedAt: snap.GeneratedAt.UnixNano(),
		Entries:     snap.Entries,
		Epoch:       snap.At.Epoch,
		Cursor:      snap.At.Cursor,
	}
	if snap.Covered {
		var raw []byte
		for _, fp := range snap.Recent {
			raw = binary.LittleEndian.AppendUint64(raw, fp)
		}
		recent := base64.StdEncoding.EncodeToString(raw)
		resp.Recent = &recent
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sortRecent returns a /v1/ebf body with the fingerprints of "recent" in
// ascending order. The list is a set: an aggregate poll visits the
// partitions in map order, so two polls of one state may order it
// differently. The body must survive the decode → sort → reflective
// re-encode unchanged but for that order, which pins every other byte.
func sortRecent(t *testing.T, body string) string {
	t.Helper()
	var resp EBFResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Recent == nil {
		return body
	}
	raw, err := base64.StdEncoding.DecodeString(*resp.Recent)
	if err != nil || len(raw)%8 != 0 {
		t.Fatalf("recent is %d bytes, %v", len(raw), err)
	}
	fps := make([]uint64, len(raw)/8)
	for i := range fps {
		fps[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	slices.Sort(fps)
	raw = raw[:0]
	for _, fp := range fps {
		raw = binary.LittleEndian.AppendUint64(raw, fp)
	}
	sorted := base64.StdEncoding.EncodeToString(raw)
	if len(sorted) != len(*resp.Recent) {
		t.Fatalf("recent re-encodes to %d characters, was %d", len(sorted), len(*resp.Recent))
	}
	return strings.Replace(body, *resp.Recent, sorted, 1)
}

// TestEBFBodyMatchesReflectiveEncoding pins the wire form of the coherence
// signal over 100 random filters: aggregate and ?table=, unpositioned,
// positioned (?epoch=&since=) where the flag logs cover the gap and where
// they cannot (another instance's epoch), identity and gzip (after
// inflating), every body is byte-identical to the reflective encoding of
// the same snapshot, and carries its exact Content-Length. An unpositioned
// poll gets, byte for byte, the body servers without a flag log sent plus
// "epoch" and "cursor".
func TestEBFBodyMatchesReflectiveEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	now := time.Unix(1700000000, 0)
	for i := 0; i < 100; i++ {
		srv := newTestServer(t, 1, &Options{Clock: func() time.Time { return now }, EBF: &ebf.Options{Bits: 1 << uint(10+rng.Intn(8))}})
		tables := []string{"posts", "users", "tags"}[:1+rng.Intn(3)]
		flag := func(most int) {
			for _, table := range tables {
				for k, keys := 0, rng.Intn(most); k < keys; k++ {
					key := RecordKey(table, "k"+strconv.Itoa(k))
					srv.coh.ReportRead(key, time.Minute)
					if rng.Intn(3) > 0 {
						srv.coh.ReportWrite(key)
					}
				}
			}
		}
		flag(300)
		held := srv.coh.Snapshot().At // the position a client polled at
		flag(60)
		h := srv.Handler()
		for _, table := range append(tables, "", "never-reported") {
			query := url.Values{}
			if table != "" {
				query.Set("table", table)
			}
			for _, since := range []ebf.Position{{}, held, {Epoch: held.Epoch + 1, Cursor: held.Cursor}} {
				if since != (ebf.Position{}) {
					query.Set("epoch", strconv.FormatUint(since.Epoch, 10))
					query.Set("since", strconv.FormatUint(since.Cursor, 10))
				}
				target := "/v1/ebf?" + query.Encode()
				snap, err := srv.coh.AppendSnapshot(nil, nil, table, since).Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if snap.Covered != (since == held) || (snap.Covered && table == "" && len(snap.Recent) == 0 && snap.At.Cursor > held.Cursor) {
					t.Fatalf("filter %d %s: covered = %v with %d fingerprints (cursor %d → %d)", i, target, snap.Covered, len(snap.Recent), held.Cursor, snap.At.Cursor)
				}
				want := reflectiveEBFBody(t, snap)
				if since == (ebf.Position{}) {
					var old bytes.Buffer
					_ = json.NewEncoder(&old).Encode(struct {
						Filter      string `json:"filter"`
						GeneratedAt int64  `json:"generatedAt"`
						Entries     int    `json:"entries"`
					}{base64.StdEncoding.EncodeToString(snap.Filter.Marshal()), snap.GeneratedAt.UnixNano(), snap.Entries})
					if plus := fmt.Sprintf(`,"epoch":%d,"cursor":%d}`+"\n", snap.At.Epoch, snap.At.Cursor); want != strings.TrimSuffix(old.String(), "}\n")+plus {
						t.Fatalf("filter %d %s: an unpositioned body is not the old body plus epoch and cursor:\n%.60s…%s", i, target, want, want[max(0, len(want)-80):])
					}
				}

				plain := serve(h, http.MethodGet, target, "")
				if got := sortRecent(t, plain.Body.String()); got != want {
					t.Fatalf("filter %d %s: identity body differs from the reflective encoding\n got %.80s…\nwant %.80s…", i, target, got, want)
				}
				zipped := serve(h, http.MethodGet, target, "", "Accept-Encoding", "gzip")
				if enc := zipped.Header().Get("Content-Encoding"); enc != "gzip" {
					t.Fatalf("filter %d %s: Content-Encoding = %q", i, target, enc)
				}
				for name, rec := range map[string]*httptest.ResponseRecorder{"identity": plain, "gzip": zipped} {
					if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
						t.Errorf("filter %d %s %s: Content-Length %q for %d bytes", i, target, name, cl, rec.Body.Len())
					}
					if rec.Code != http.StatusOK || rec.Header().Get("Cache-Control") != "no-store" || rec.Header().Get("Content-Type") != "application/json" {
						t.Errorf("filter %d %s %s: status %d, headers %v", i, target, name, rec.Code, rec.Header())
					}
				}
				zr, err := gzip.NewReader(zipped.Body)
				if err != nil {
					t.Fatal(err)
				}
				inflated, err := io.ReadAll(zr)
				if err != nil {
					t.Fatal(err)
				}
				if sortRecent(t, string(inflated)) != want {
					t.Fatalf("filter %d %s: inflated gzip body differs from the reflective encoding", i, target)
				}
			}
		}
	}
}

// TestEBFTablePollTouchesOnePartition: a ?table= poll used to build the
// aggregate (a snapshot of every partition) and then throw it away for the
// table's own. It must snapshot that one partition only.
func TestEBFTablePollTouchesOnePartition(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	for _, table := range []string{"posts", "users", "tags"} {
		srv.coh.ReportRead(RecordKey(table, "x"), time.Minute)
	}
	h := srv.Handler()
	snapshots := func() uint64 { return srv.coh.Stats().Snapshots }

	before := snapshots()
	if rec := serve(h, http.MethodGet, "/v1/ebf?table=users", ""); rec.Code != http.StatusOK {
		t.Fatalf("table poll = %d", rec.Code)
	}
	if got := snapshots() - before; got != 1 {
		t.Errorf("a ?table= poll took %d partition snapshots, want 1", got)
	}
	before = snapshots()
	serve(h, http.MethodGet, "/v1/ebf", "")
	if got := snapshots() - before; got != 3 {
		t.Errorf("an aggregate poll took %d partition snapshots, want one per partition (3)", got)
	}
	before = snapshots()
	serve(h, http.MethodGet, "/v1/ebf?table=nobody", "")
	if got, tables := snapshots()-before, srv.coh.Tables(); got != 0 || len(tables) != 3 {
		t.Errorf("a poll for an unknown table took %d snapshots and left partitions %v", got, tables)
	}
}

// discardWriter is a reusable ResponseWriter, so AllocsPerRun sees the
// handler's allocations and not a recorder's.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestEBFPollBuildsNoCompressor bounds what one gzip poll allocates: a
// handful of header strings. Building a flate compressor (≈ 30 allocations,
// ≈ 620 KB) or cloning a partition per poll would show up here.
func TestEBFPollBuildsNoCompressor(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	srv := newTestServer(t, 1, nil)
	for i := 0; i < 900; i++ {
		key := RecordKey("posts", strconv.Itoa(i))
		srv.coh.ReportRead(key, time.Minute)
		srv.coh.ReportWrite(key)
	}
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/ebf", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	w := &discardWriter{h: http.Header{}}
	poll := func() {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	poll()
	allocs := testing.AllocsPerRun(50, poll)
	t.Logf("allocs/poll = %v", allocs)
	if allocs > 12 {
		t.Errorf("a gzip /v1/ebf poll made %v allocations, want ≤ 12", allocs)
	}
}

// TestDataPathTakesNoServerLock holds the server-wide mutex while a record
// GET, a query GET, a PATCH and an EBF poll go through the full handler
// chain: none of them may wait for it. Then the same requests run against
// concurrent role changes (topology pushes, a fence, a promotion's
// bookkeeping) for the race detector.
func TestDataPathTakesNoServerLock(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	insertPost(t, srv, "p1", "x")
	h := srv.Handler()
	queryURL := "/v1/db/posts?q=" + url.QueryEscape(`{"tags":{"$contains":"x"}}`)
	dataPath := func() error {
		for _, rq := range []struct {
			method, target, body string
			want                 int
		}{
			{http.MethodGet, "/v1/db/posts/p1", "", http.StatusOK},
			{http.MethodGet, queryURL, "", http.StatusOK},
			{http.MethodPatch, "/v1/db/posts/p1", `{"set":{"rating":2}}`, http.StatusOK},
			{http.MethodGet, "/v1/ebf", "", http.StatusOK},
			{http.MethodGet, "/v1/ebf?table=posts", "", http.StatusOK},
		} {
			if rec := serve(h, rq.method, rq.target, rq.body, "Accept-Encoding", "gzip"); rec.Code != rq.want {
				return fmt.Errorf("%s %s = %d: %s", rq.method, rq.target, rec.Code, rec.Body)
			}
		}
		return nil
	}

	srv.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- dataPath() }()
	select {
	case err := <-done:
		srv.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		srv.mu.Unlock()
		t.Fatal("a data-path request waited for the server-wide mutex")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			self := "http://self-" + strconv.Itoa(i)
			srv.SetSelfURL(self)
			srv.SetReplicaEndpoints("http://old-primary", []string{self, "http://other"})
			srv.updateRole(func(r *nodeRole) { r.fencedTo = "http://successor" })
			srv.noteSelfPromoted("http://old-primary")
			if primary, replicas := srv.ReplicaEndpoints(); primary != self || len(replicas) != 1 || replicas[0] != "http://other" {
				t.Errorf("after promotion %d: advertised (%q, %v)", i, primary, replicas)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := dataPath(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestQueryMakesOneEstimatorPass counts the estimator's clock reads per
// query through its injected clock: one, whatever the result size (the
// per-record WriteRate loop read it |result| + 1 times).
func TestQueryMakesOneEstimatorPass(t *testing.T) {
	var reads int
	srv := newTestServer(t, 1, &Options{TTL: &ttl.Config{Clock: func() time.Time {
		reads++
		return time.Now()
	}}})
	for i := 0; i < 20; i++ {
		insertPost(t, srv, "p"+strconv.Itoa(i), "x")
	}
	h := srv.Handler()
	target := "/v1/db/posts?q=" + url.QueryEscape(`{"tags":{"$contains":"x"}}`)
	for i := 0; i < 2; i++ { // the activating query and a resident one
		reads = 0
		rec := serve(h, http.MethodGet, target, "")
		var body QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Count != 20 {
			t.Fatalf("query %d: %d results, err %v", i, body.Count, err)
		}
		if reads != 1 {
			t.Errorf("query %d over 20 records: %d estimator clock reads, want 1", i, reads)
		}
	}

	var stats StatsResponse
	if err := json.Unmarshal(serve(h, http.MethodGet, "/v1/stats", "").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.TTL.TrackedRecords != 20 {
		t.Errorf("stats ttl.trackedRecords = %d, want the 20 records written", stats.TTL.TrackedRecords)
	}
}

// TestPatchBodyMatchesEncodingJSON pins the PATCH answer, now written by
// the direct encoder, to encoding/json's bytes for the updated document.
func TestPatchBodyMatchesEncodingJSON(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	if err := srv.Insert("posts", document.New("p/1 ü", map[string]any{"title": "a <b> & \"c\"", "nl": "line\nbreak ", "n": 1e21})); err != nil {
		t.Fatal(err)
	}
	rec := serve(srv.Handler(), http.MethodPatch, "/v1/db/posts/"+url.PathEscape("p/1 ü"), `{"set":{"rating":7},"inc":{"views":2}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("PATCH = %d: %s", rec.Code, rec.Body)
	}
	doc, err := srv.router.Get("posts", "p/1 ü")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(doc); err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != want.String() {
		t.Errorf("PATCH body\n got %s\nwant %s", got, want.String())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) || rec.Header().Get(HeaderWriteSeq) == "" {
		t.Errorf("PATCH headers: %v", rec.Header())
	}
}
