// Top-level benchmarks: the in-process cost of the core data structures
// and write, query, coherence and replication paths, plus the simulator's
// own event rate. The paper's figures are not benchmarks: `go run
// ./cmd/quaestor-bench` regenerates them and the TestFigure*/TestAblation*
// tests in internal/experiments smoke every one. End-to-end numbers come
// from benchmark/, which drives a real quaestor-server over the wire.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quaestor/internal/commitlog"
	"quaestor/internal/document"
	"quaestor/internal/ebf"
	"quaestor/internal/index"
	"quaestor/internal/invalidb"
	"quaestor/internal/query"
	"quaestor/internal/replication"
	"quaestor/internal/server"
	"quaestor/internal/sim"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
	"quaestor/internal/wal"
	"quaestor/internal/workload"
)

// BenchmarkRepresentationCostModel measures the decision function itself.
func BenchmarkRepresentationCostModel(b *testing.B) {
	cost := ttl.RepresentationCost{
		ResultSize:     10,
		ChangeRate:     0.5,
		MembershipRate: 0.15,
		RecordHitRate:  0.8,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := ttl.ChooseRepresentation(cost); got != ttl.IDList && got != ttl.ObjectList {
			b.Fatal("invalid representation")
		}
	}
}

// ---------------------------------------------------------------------------
// Secondary-index & planner benchmarks: indexed access paths vs the full
// scans every layer paid before the index layer existed. The acceptance
// target is ≥5× at 10k documents (store) and 1k registered queries
// (InvaliDB candidate matching).

const benchDocs = 10000

// newBenchStore builds a 10k-document table; with indexes, the planner
// routes the benchmark queries through probe/range paths.
func newBenchStore(b *testing.B, indexed bool) *store.Store {
	b.Helper()
	s := store.MustOpen(nil)
	b.Cleanup(s.Close)
	if err := s.CreateTable("docs"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchDocs; i++ {
		doc := document.New(fmt.Sprintf("d%05d", i), map[string]any{
			"tag":  fmt.Sprintf("tag%03d", i%1000), // ≈10 docs per tag
			"rank": int64(i),
			"tags": []any{fmt.Sprintf("t%03d", i%500), "all"},
		})
		if err := s.Insert("docs", doc); err != nil {
			b.Fatal(err)
		}
	}
	if indexed {
		for _, path := range []string{"tag", "rank", "tags"} {
			if err := s.CreateIndex("docs", path); err != nil {
				b.Fatal(err)
			}
		}
	}
	return s
}

func benchStoreQuery(b *testing.B, indexed bool, q *query.Query) {
	s := newBenchStore(b, indexed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs, err := s.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(docs) == 0 {
			b.Fatal("query matched nothing")
		}
	}
}

// BenchmarkStoreLookupIndexed measures an equality lookup through the
// planner's hash-index probe path.
func BenchmarkStoreLookupIndexed(b *testing.B) {
	benchStoreQuery(b, true, query.New("docs", query.Eq("tag", "tag042")))
}

// BenchmarkStoreLookupScan is the same lookup forced through a full scan
// (no index exists, so the planner falls back).
func BenchmarkStoreLookupScan(b *testing.B) {
	benchStoreQuery(b, false, query.New("docs", query.Eq("tag", "tag042")))
}

// BenchmarkStoreRangeIndexed measures a closed-range query through the
// ordered-index range path (≈1% selectivity).
func BenchmarkStoreRangeIndexed(b *testing.B) {
	benchStoreQuery(b, true, query.New("docs",
		query.AndOf(query.Gte("rank", int64(5000)), query.Lt("rank", int64(5100)))))
}

// BenchmarkStoreRangeScan is the same range query without indexes.
func BenchmarkStoreRangeScan(b *testing.B) {
	benchStoreQuery(b, false, query.New("docs",
		query.AndOf(query.Gte("rank", int64(5000)), query.Lt("rank", int64(5100)))))
}

// BenchmarkStoreContainsIndexed measures a CONTAINS query through the
// multikey element postings.
func BenchmarkStoreContainsIndexed(b *testing.B) {
	benchStoreQuery(b, true, query.New("docs", query.Contains("tags", "t123")))
}

// BenchmarkStoreContainsScan is the same CONTAINS query by full scan.
func BenchmarkStoreContainsScan(b *testing.B) {
	benchStoreQuery(b, false, query.New("docs", query.Contains("tags", "t123")))
}

// BenchmarkIndexAddArrayDocs measures multikey index maintenance for the
// paper's blog posts: each op indexes one document tagged with 2 distinct
// tags of 500, into an index that is rebuilt every 5 000 documents. B/op
// and allocs/op are the index's cost per written document.
func BenchmarkIndexAddArrayDocs(b *testing.B) {
	const n, tags = 5000, 500
	rng := rand.New(rand.NewSource(1))
	docs := make([]*document.Document, n)
	for i := range docs {
		t1, t2 := rng.Intn(tags), rng.Intn(tags-1)
		if t2 >= t1 {
			t2++
		}
		docs[i] = document.New(fmt.Sprintf("p%05d", i), map[string]any{
			"tags": []any{fmt.Sprintf("tag%03d", t1), fmt.Sprintf("tag%03d", t2)},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var f *index.Field
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			f = index.NewField("tags")
		}
		f.Add(docs[i%n])
	}
}

// ---------------------------------------------------------------------------
// Streaming-executor benchmarks: the iterator-composed execution paths
// (index probe, ordered range emission, bounded top-K) against the materializing clone-everything-then-Apply baseline. The
// acceptance target for the streaming executor is ≥5× latency and ≥10×
// allocation reduction for ORDER BY + LIMIT 10 over 100k matching
// documents (the scan/limit cell).

const benchStreamDocs = 100_000

var (
	streamStoreOnce sync.Once
	streamStore     *store.Store
)

// newStreamBenchStore builds (once per bench binary) a 100k-document table
// with a sequential rank (range axis) and 100 documents per tag value
// (probe axis), both indexed: large enough that the full-sort baseline's
// clone+sort cost dominates.
func newStreamBenchStore(b *testing.B) *store.Store {
	b.Helper()
	streamStoreOnce.Do(func() {
		s := store.MustOpen(nil)
		if err := s.CreateTable("docs"); err != nil {
			panic(err)
		}
		for i := 0; i < benchStreamDocs; i++ {
			doc := document.New(fmt.Sprintf("d%06d", i), map[string]any{
				"tag":  fmt.Sprintf("tag%03d", i%1000),
				"rank": int64(i),
			})
			if err := s.Insert("docs", doc); err != nil {
				panic(err)
			}
		}
		for _, path := range []string{"tag", "rank"} {
			if err := s.CreateIndex("docs", path); err != nil {
				panic(err)
			}
		}
		streamStore = s
	})
	return streamStore
}

// BenchmarkQueryStream runs each access path with and without a LIMIT
// window two ways: "streamed" through the planner and executor
// (QueryPlanned, which hands back the executor's window of stored
// documents, the window the NDJSON endpoint writes out) and
// "materialized" through the clone-then-Apply baseline (ScanQuery). Scan cells use an unsargable predicate, so the
// planner cannot pick an index; scan/limit is the acceptance cell. Both
// variants must return the baseline's count.
func BenchmarkQueryStream(b *testing.B) {
	s := newStreamBenchStore(b)
	half := int64(benchStreamDocs / 2)
	cells := []struct {
		name string
		q    *query.Query
	}{
		{"probe/all", query.New("docs", query.Eq("tag", "tag042")).Sorted(query.Asc("rank"))},
		{"probe/limit", query.New("docs", query.Eq("tag", "tag042")).Sorted(query.Desc("rank")).Sliced(0, 10)},
		{"range/all", query.New("docs", query.Gte("rank", half)).Sorted(query.Asc("rank"))},
		{"range/limit", query.New("docs", query.Gte("rank", half)).Sorted(query.Asc("rank")).Sliced(0, 10)},
		{"scan/all", query.New("docs", query.Exists("tag", true)).Sorted(query.Asc("rank"))},
		{"scan/limit", query.New("docs", nil).Sorted(query.Desc("rank")).Sliced(0, 10)},
	}
	for _, c := range cells {
		want, err := s.ScanQuery(c.q)
		if err != nil {
			b.Fatal(err)
		}
		variants := []struct {
			name string
			run  func() (int, error)
		}{
			{"streamed", func() (int, error) {
				docs, _, err := s.QueryPlanned(c.q)
				return len(docs), err
			}},
			{"materialized", func() (int, error) {
				docs, err := s.ScanQuery(c.q)
				return len(docs), err
			}},
		}
		for _, v := range variants {
			b.Run(c.name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if n, err := v.run(); err != nil || n != len(want) {
						b.Fatalf("docs=%d err=%v, want %d", n, err, len(want))
					}
				}
			})
		}
	}
}

const benchRegisteredQueries = 1000

// benchInvaliDBMatch measures matching-cell fan-out with 1k registered
// queries: each iteration ingests one after-image and the pipeline drains
// before the timer stops. With the inverted query index an event only
// reaches its candidate queries; disabled, every event is tested against
// all 1k.
func benchInvaliDBMatch(b *testing.B, disableIndex bool) {
	cluster := invalidb.NewCluster(&invalidb.Config{
		Buffer:            1 << 14,
		DisableQueryIndex: disableIndex,
	})
	b.Cleanup(cluster.Stop)
	go func() {
		for range cluster.Notifications() {
		}
	}()
	for i := 0; i < benchRegisteredQueries; i++ {
		q := query.New("posts", query.Contains("tags", fmt.Sprintf("tag%04d", i)))
		if err := cluster.Activate(invalidb.Registration{Query: q}); err != nil {
			b.Fatal(err)
		}
	}
	events := make([]store.ChangeEvent, 256)
	for i := range events {
		events[i] = store.ChangeEvent{
			Seq:   uint64(i + 1),
			Table: "posts",
			Op:    store.OpUpdate,
			After: document.New(fmt.Sprintf("p%03d", i), map[string]any{
				"tags": []any{fmt.Sprintf("tag%04d", i%benchRegisteredQueries)},
			}),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		ev.Seq = uint64(i + 1)
		cluster.Ingest(ev)
	}
	if !cluster.Quiesce(time.Minute) {
		b.Fatal("pipeline did not drain")
	}
}

// BenchmarkInvaliDBMatchIndexed measures per-event matching cost with the
// inverted query index pruning candidates.
func BenchmarkInvaliDBMatchIndexed(b *testing.B) {
	benchInvaliDBMatch(b, false)
}

// BenchmarkInvaliDBMatchScan is the O(registered queries) baseline with
// candidate pruning disabled.
func BenchmarkInvaliDBMatchScan(b *testing.B) {
	benchInvaliDBMatch(b, true)
}

// BenchmarkEBFThroughput measures Expiring Bloom Filter operation
// throughput — the paper reports >150K queries or invalidations per second
// per Redis instance for the shared variant; the in-memory variant here is
// the single-server deployment.
func BenchmarkEBFThroughput(b *testing.B) {
	e := ebf.New(nil)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("q:posts/tag%04d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		e.ReportRead(k, time.Minute)
		e.ReportWrite(k)
	}
}

// BenchmarkEBFSnapshot measures flat-filter snapshot generation, the
// per-connection piggyback cost.
func BenchmarkEBFSnapshot(b *testing.B) {
	e := ebf.New(nil)
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("q:posts/tag%05d", i)
		e.ReportRead(k, time.Hour)
		e.ReportWrite(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := e.Snapshot()
		if snap.Filter == nil {
			b.Fatal("nil snapshot")
		}
	}
}

// BenchmarkEBFReportRead measures one ReportRead against a partition that
// already tracks `live` unexpired keys. The cost must not grow with live:
// the TTL-table sweep is amortized (it ran on every call once a partition
// held more than 1024 keys, making this O(live)).
func BenchmarkEBFReportRead(b *testing.B) {
	for _, live := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("live=%dk", live/1000), func(b *testing.B) {
			p := ebf.NewPartitioned(nil)
			keys := make([]string, live)
			for i := range keys {
				keys[i] = fmt.Sprintf("posts/doc%06d", i)
				p.ReportRead(keys[i], time.Hour)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ReportRead(keys[i%live], time.Hour)
			}
		})
	}
}

// discardResponse is a reusable http.ResponseWriter, so a handler
// benchmark reports the handler's allocations and not a recorder's.
type discardResponse struct{ h http.Header }

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) WriteHeader(int)             {}
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkEBFEndpoint measures one gzip GET /v1/ebf poll through the
// server's handler chain against a default-size (14.6 KB) filter holding
// `entries` stale keys — what every connected SDK client costs the origin
// once per Δ. Before the pooled pass a poll cloned every partition,
// marshaled, base64-encoded into a string, reflected through json.Encoder
// and built a level-6 flate compressor: ≈ 0.8–2 ms and ≈ 650 KB per op.
// The since=50 variant is the poll a renewing SDK sends: positioned 50
// flaggings back, answered with their fingerprints in "recent" — for the
// allocations of the plain poll.
func BenchmarkEBFEndpoint(b *testing.B) {
	for _, tc := range []struct{ entries, since int }{{200, 0}, {900, 0}, {900, 50}, {5000, 0}} {
		name := fmt.Sprintf("entries=%d", tc.entries)
		if tc.since > 0 {
			name += fmt.Sprintf(",since=%d", tc.since)
		}
		b.Run(name, func(b *testing.B) {
			db := store.MustOpen(nil)
			defer db.Close()
			srv := server.New(db, nil)
			defer srv.Close()
			if err := db.CreateTable("posts"); err != nil {
				b.Fatal(err)
			}
			target := "/v1/ebf"
			for i := 0; i < tc.entries; i++ {
				if tc.since > 0 && i == tc.entries-tc.since {
					at := srv.EBFSnapshot().At
					target = fmt.Sprintf("/v1/ebf?epoch=%d&since=%d", at.Epoch, at.Cursor)
				}
				id := fmt.Sprintf("doc%06d", i)
				if err := srv.Insert("posts", document.New(id, map[string]any{"n": int64(i)})); err != nil {
					b.Fatal(err)
				}
				if _, err := srv.Read("posts", id); err != nil { // a TTL is out
					b.Fatal(err)
				}
				if _, err := srv.Update("posts", id, store.UpdateSpec{Inc: map[string]float64{"n": 1}}); err != nil { // so the write flags it
					b.Fatal(err)
				}
			}
			if got := srv.EBFSnapshot().Entries; got != tc.entries {
				b.Fatalf("filter holds %d entries, want %d", got, tc.entries)
			}
			h := srv.Handler()
			req := httptest.NewRequest(http.MethodGet, target, nil)
			req.Header.Set("Accept-Encoding", "gzip")
			w := &discardResponse{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(w.h)
				h.ServeHTTP(w, req)
			}
			b.StopTimer()
			if w.h.Get("Content-Encoding") != "gzip" {
				b.Fatalf("poll not gzip-encoded: %v", w.h)
			}
			if got := srv.EBFStats().UncoveredPolls; got != 0 {
				b.Fatalf("%d polls went without recent", got)
			}
		})
	}
}

// BenchmarkQueryEstimate compares what a 20-record query response asks of
// the TTL estimator: "two-calls" is the sequence the query path made — a
// WriteRate per record for the representation model, then QueryTTL, 22
// lock acquisitions and 21 clock reads — "one-pass" the single
// QueryEstimate that returns both.
func BenchmarkQueryEstimate(b *testing.B) {
	const docs = 20
	est := ttl.NewEstimator(nil)
	keys := make([]string, docs)
	for i := range keys {
		keys[i] = fmt.Sprintf("posts/doc%06d", i)
		for w := 0; w < i%4; w++ {
			est.ObserveWrite(keys[i])
		}
	}
	var rate float64
	var dur time.Duration
	b.Run("docs=20/two-calls", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rate = 0
			for _, k := range keys {
				rate += est.WriteRate(k)
			}
			dur = est.QueryTTL("q:posts/x", keys)
		}
	})
	twoRate, twoDur := rate, dur
	b.Run("docs=20/one-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rate, dur = est.QueryEstimate("q:posts/x", keys)
		}
	})
	if rate <= 0 || dur != twoDur || math.Abs(rate-twoRate) > 1e-9 {
		b.Fatalf("one pass (%v, %v) disagrees with the two calls (%v, %v)", rate, dur, twoRate, twoDur)
	}
}

// BenchmarkActivationReplay measures the replay lookup of a query
// activation against a full 4096-event fan-out ring — the commit log's one
// event history — when the activation gap is empty (the common case:
// nothing was written between evaluating the query and activating it).
// B/op is the point: an empty gap allocates nothing.
func BenchmarkActivationReplay(b *testing.B) {
	l := commitlog.NewLog(nil)
	defer l.Close()
	after := document.New("d1", map[string]any{"tag": "t001"})
	const ring = 4096
	for seq := uint64(1); seq <= ring; seq++ {
		l.Append([]commitlog.Event{{Seq: seq, Table: "docs", Op: commitlog.OpUpdate, After: after}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if evs, err := l.Replay("docs", ring); len(evs) != 0 || err != nil {
			b.Fatalf("replayed %d events past the newest (err %v)", len(evs), err)
		}
	}
}

// legacyDoc encodes a document the way Document.MarshalJSON did before the
// direct encoder: copy into a fresh map, reflect, sort keys.
type legacyDoc document.Document

func (d *legacyDoc) MarshalJSON() ([]byte, error) {
	body := make(map[string]any, len(d.Fields)+2)
	for k, v := range d.Fields {
		body[k] = v
	}
	body["_id"] = d.ID
	body["_version"] = d.Version
	return json.Marshal(body)
}

// BenchmarkQueryResponseEncode compares the encoders of a 20-document
// object-list query response (the benchmark dataset's document shape):
// "old" is the reflective encoding/json path behind writeJSON, "new" the
// append-style encoder into a reused buffer that the HTTP layer uses,
// walking documents nobody sealed, and "sealed" the same encoder over
// stored documents, whose wire forms are built once and then copied. All
// three produce the same bytes.
func BenchmarkQueryResponseEncode(b *testing.B) {
	const n = 20
	docs := workload.GenerateDataset(&workload.DatasetConfig{Tables: 1, DocsPerTable: n, Seed: 1}).Docs[workload.TableName(0)]
	resp := server.QueryResponse{Representation: "object-list", Docs: docs, Count: n}
	var old struct {
		Representation string       `json:"rep"`
		IDs            []string     `json:"ids"`
		Docs           []*legacyDoc `json:"docs,omitempty"`
		Count          int          `json:"count"`
	}
	old.Representation, old.Count = resp.Representation, resp.Count
	for _, d := range docs {
		resp.IDs = append(resp.IDs, d.ID)
		old.Docs = append(old.Docs, (*legacyDoc)(d))
	}
	old.IDs = resp.IDs

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&old); err != nil {
		b.Fatal(err)
	}
	direct, err := resp.AppendJSON(nil)
	if err != nil || !bytes.Equal(append(direct, '\n'), buf.Bytes()) {
		b.Fatalf("encoders disagree (%v):\n%s\n%s", err, direct, buf.Bytes())
	}

	b.Run("docs=20/old", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(&old); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("docs=20/new", func(b *testing.B) {
		b.ReportAllocs()
		out := direct
		for i := 0; i < b.N; i++ {
			if out, err = resp.AppendJSON(out[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	stored := resp
	stored.Docs = make([]*document.Document, n)
	for i, d := range docs {
		stored.Docs[i] = d.Clone()
		stored.Docs[i].Seal()
	}
	for range 2 { // the first pass builds the wire forms, the second copies them
		if sealed, err := stored.AppendJSON(nil); err != nil || !bytes.Equal(sealed, direct) {
			b.Fatalf("sealed documents encode differently (%v):\n%s\n%s", err, sealed, direct)
		}
	}
	b.Run("docs=20/sealed", func(b *testing.B) {
		b.ReportAllocs()
		out := direct
		for i := 0; i < b.N; i++ {
			if out, err = stored.AppendJSON(out[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// legacyDecodedDoc decodes a document the way Document.UnmarshalJSON did
// before the single-pass decoder: encoding/json with UseNumber into a map,
// then a walk converting each json.Number.
type legacyDecodedDoc document.Document

func (d *legacyDecodedDoc) UnmarshalJSON(data []byte) error {
	var body map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&body); err != nil {
		return err
	}
	if id, ok := body["_id"].(string); ok {
		d.ID = id
	}
	if n, ok := body["_version"].(json.Number); ok {
		v, err := n.Int64()
		if err != nil {
			return err
		}
		d.Version = v
	}
	delete(body, "_id")
	delete(body, "_version")
	var convert func(v any) (any, error)
	convert = func(v any) (any, error) {
		switch t := v.(type) {
		case json.Number:
			if iv, err := t.Int64(); err == nil {
				return iv, nil
			}
			return t.Float64()
		case []any:
			for i, e := range t {
				var err error
				if t[i], err = convert(e); err != nil {
					return nil, err
				}
			}
		case map[string]any:
			for k, e := range t {
				c, err := convert(e)
				if err != nil {
					return nil, err
				}
				t[k] = c
			}
		}
		return v, nil
	}
	if body == nil {
		body = map[string]any{}
	}
	if _, err := convert(body); err != nil {
		return err
	}
	d.Fields = body
	return nil
}

// legacyTxnRequest is server.TxnRequest as the handler decoded it before:
// one encoding/json pass over the body that hands each document's bytes
// to the legacy decoder.
type legacyTxnRequest struct {
	Reads  map[string]int64 `json:"reads"`
	Writes []struct {
		Op    string            `json:"op"`
		Table string            `json:"table"`
		ID    string            `json:"id"`
		Doc   *legacyDecodedDoc `json:"doc,omitempty"`
		Spec  *store.UpdateSpec `json:"spec,omitempty"`
	} `json:"writes"`
}

// BenchmarkDocumentDecode compares the two decoders of a request body:
// one benchmark dataset document (a PUT/POST body, a WAL record's
// document, one member of a query result the SDK decodes) and one
// 100-document /v1/transaction body (the benchmark's in-memory load
// batch). "legacy" is encoding/json with UseNumber plus the number walk,
// "direct" the single-pass decoder the server uses. Both yield the same
// documents.
func BenchmarkDocumentDecode(b *testing.B) {
	const batch = 100
	docs := workload.GenerateDataset(&workload.DatasetConfig{Tables: 1, DocsPerTable: batch, Seed: 1}).Docs[workload.TableName(0)]
	one, err := json.Marshal(docs[0])
	if err != nil {
		b.Fatal(err)
	}
	var txn server.TxnRequest
	for _, d := range docs {
		txn.Writes = append(txn.Writes, server.TxnWriteOp{Op: "put", Table: workload.TableName(0), ID: d.ID, Doc: d})
	}
	body, err := json.Marshal(txn)
	if err != nil {
		b.Fatal(err)
	}

	var legacy legacyDecodedDoc
	var direct document.Document
	if err := json.Unmarshal(one, &legacy); err != nil {
		b.Fatal(err)
	}
	if err := direct.UnmarshalJSON(one); err != nil || !direct.Equal((*document.Document)(&legacy)) || direct.Version != legacy.Version {
		b.Fatalf("decoders disagree (%v): %s@%d %v vs %s@%d %v", err, direct.ID, direct.Version, direct.Fields, legacy.ID, legacy.Version, legacy.Fields)
	}
	var legacyTxn legacyTxnRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&legacyTxn); err != nil {
		b.Fatal(err)
	}
	directTxn, err := server.DecodeTxnRequest(body)
	if err != nil || len(directTxn.Writes) != batch || len(legacyTxn.Writes) != batch {
		b.Fatalf("transaction decoders disagree (%v): %d vs %d writes", err, len(directTxn.Writes), len(legacyTxn.Writes))
	}
	for i, w := range directTxn.Writes {
		if !w.Doc.Equal((*document.Document)(legacyTxn.Writes[i].Doc)) || !w.Doc.Equal(docs[i]) {
			b.Fatalf("write %d: decoders disagree: %+v vs %+v", i, w.Doc, legacyTxn.Writes[i].Doc)
		}
	}

	b.Run("doc/legacy", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(one)))
		for i := 0; i < b.N; i++ {
			var d legacyDecodedDoc
			if err := json.Unmarshal(one, &d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("doc/direct", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(one)))
		for i := 0; i < b.N; i++ {
			var d document.Document
			if err := d.UnmarshalJSON(one); err != nil {
				b.Fatal(err)
			}
		}
	})
	// doc/text is the server's stored-document path: a scan that builds
	// no values and a copy of the text. doc/text+serve adds its first
	// wire form once sealed, which is the text itself.
	b.Run("doc/text", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(one)))
		for i := 0; i < b.N; i++ {
			var d document.Document
			if err := document.NewDecoder(one).DocumentText(&d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("doc/text+serve", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(one)))
		var out []byte
		for i := 0; i < b.N; i++ {
			var d document.Document
			if err := document.NewDecoder(one).DocumentText(&d); err != nil {
				b.Fatal(err)
			}
			d.Seal()
			var err error
			if out, err = d.AppendJSON(out[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("txn100/legacy", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req legacyTxnRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("txn100/direct", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := server.DecodeTxnRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTxnIngest is the server's half of the benchmark's in-memory
// load: each op decodes one 100-put /v1/transaction body and commits it
// (store, index, TTL estimator, EBF report, change stream, InvaliDB) into
// the benchmark's shape, 4 tables × 5 000 documents with a tags index.
// Once the corpus is in, the server is rebuilt off the clock, so every
// put inserts. ns/doc and allocs/doc count the timed ops only; with
// b.N past one corpus (200 ops), heapB/doc is the live heap a whole load
// adds, per document.
func BenchmarkTxnIngest(b *testing.B) {
	b.StopTimer()
	const batch = 100
	ds := workload.GenerateDataset(&workload.DatasetConfig{Tables: 4, DocsPerTable: 5000, Seed: 1})
	var bodies [][]byte
	for _, t := range ds.Tables {
		docs := ds.Docs[t]
		for i := 0; i < len(docs); i += batch {
			var txn server.TxnRequest
			for _, d := range docs[i:min(i+batch, len(docs))] {
				txn.Writes = append(txn.Writes, server.TxnWriteOp{Op: "put", Table: t, ID: d.ID, Doc: d})
			}
			body, err := json.Marshal(txn)
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	var srv *server.Server
	var db *store.Store
	shutdown := func() {
		if srv != nil {
			srv.Close()
			db.Close()
		}
	}
	defer shutdown()
	var ms runtime.MemStats
	var mallocs uint64
	// heapBase is the live heap before a load, heapLoad what one whole
	// load added to it.
	var heapBase, heapLoad uint64
	for i := 0; i < b.N; i++ {
		if i%len(bodies) == 0 {
			if i > 0 {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				heapLoad = ms.HeapAlloc - heapBase
			}
			shutdown()
			db = store.MustOpen(nil)
			for _, t := range ds.Tables {
				if err := errors.Join(db.CreateTable(t), db.CreateIndex(t, "tags")); err != nil {
					b.Fatal(err)
				}
			}
			srv = server.New(db, nil)
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heapBase = ms.HeapAlloc
		}
		runtime.ReadMemStats(&ms)
		mallocs -= ms.Mallocs
		b.StartTimer()
		req, err := server.DecodeTxnRequest(bodies[i%len(bodies)])
		if err != nil {
			b.Fatal(err)
		}
		res, err := srv.Commit(req)
		if err != nil || !res.Committed {
			b.Fatalf("commit: %v %+v", err, res)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs
	}
	docs := float64(b.N * batch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/docs, "ns/doc")
	b.ReportMetric(float64(mallocs)/docs, "allocs/doc")
	if heapLoad > 0 {
		// Live heap per loaded, never-read document: the document with
		// its share of the store's map, the tags index and the server's
		// per-record state.
		b.ReportMetric(float64(heapLoad)/float64(len(bodies)*batch), "heapB/doc")
	}
}

// BenchmarkSimulatorEventRate measures raw simulator speed (events/s) —
// the Monte Carlo substrate's own performance.
func BenchmarkSimulatorEventRate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := sim.Run(&sim.Config{
			Dataset:        &workload.DatasetConfig{Tables: 2, DocsPerTable: 1000, QueriesPerTable: 50},
			Clients:        4,
			ConnsPerClient: 25,
			Duration:       3 * time.Second,
			Mode:           server.ModeFull,
			MaxOps:         100000,
		})
		if m.Ops == 0 {
			b.Fatal("no ops simulated")
		}
	}
}

// ---------------------------------------------------------------------------
// Durability benchmarks: the WAL's group-committed append path, and the
// store's end-to-end write path across fsync policies. The acceptance
// targets are fsyncs-per-write < 1 with 64 concurrent writers under
// fsync=always (group commit batches), and fsync=never staying within 2x
// of the pure in-memory write path.

// benchWALRecord builds a representative put record.
func benchWALRecord(seq uint64, id string) wal.Record {
	return wal.Record{Seq: seq, Kind: wal.KindPut, Table: "docs",
		Doc: document.New(id, map[string]any{"tag": "tag001", "rank": int64(seq), "tags": []any{"t001", "all"}})}
}

// BenchmarkWALAppendSerial measures a lone writer appending under each
// fsync policy — the un-batched worst case for fsync=always.
func BenchmarkWALAppendSerial(b *testing.B) {
	for _, policy := range []wal.FsyncPolicy{wal.FsyncAlways, wal.FsyncInterval, wal.FsyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			l, err := wal.Open(b.TempDir(), &wal.Options{Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(benchWALRecord(uint64(i+1), "d00001")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALAppendConcurrent measures 64 concurrent appenders: group
// commit batches them into far fewer writes+fsyncs than appends.
func BenchmarkWALAppendConcurrent(b *testing.B) {
	for _, policy := range []wal.FsyncPolicy{wal.FsyncAlways, wal.FsyncInterval, wal.FsyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			l, err := wal.Open(b.TempDir(), &wal.Options{Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			var seq atomic.Uint64
			b.ReportAllocs()
			b.SetParallelism(64)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := l.Append(benchWALRecord(seq.Add(1), "d00001")); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			st := l.Stats()
			if st.Appends > 0 {
				b.ReportMetric(float64(st.Fsyncs)/float64(st.Appends), "fsyncs/op")
				b.ReportMetric(st.MeanBatch, "records/batch")
			}
		})
	}
}

// BenchmarkCommitLogFanout measures the ordered commit pipeline's
// publish path with 1, 8 and 64 blocking subscribers draining
// concurrently: one Log.Append per iteration, every subscriber
// receiving every event in Seq order. This is the fan-out cost the
// store's write path pays per committed write.
func BenchmarkCommitLogFanout(b *testing.B) {
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("subs-%d", subs), func(b *testing.B) {
			l := commitlog.NewLog(&commitlog.Options{Ring: 1 << 12})
			var delivered, disordered atomic.Uint64
			var wg sync.WaitGroup
			for i := 0; i < subs; i++ {
				sub := l.SubscribeTail(fmt.Sprintf("s%d", i))
				wg.Add(1)
				go func() {
					defer wg.Done()
					var last uint64
					for batch := range sub.Events() {
						for _, ev := range batch {
							if ev.Seq <= last {
								disordered.Add(1)
							}
							last = ev.Seq
						}
						delivered.Add(uint64(len(batch)))
					}
				}()
			}
			after := document.New("d1", map[string]any{"tag": "t001", "rank": int64(1)})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Append([]commitlog.Event{{Seq: uint64(i + 1), Table: "docs", Op: commitlog.OpUpdate, After: after}})
			}
			l.Close()
			wg.Wait() // drains the backlog: every subscriber saw every event
			b.StopTimer()
			if got, want := delivered.Load(), uint64(b.N)*uint64(subs); got != want {
				b.Fatalf("delivered %d events, want %d", got, want)
			}
			if n := disordered.Load(); n != 0 {
				b.Fatalf("%d events arrived out of Seq order", n)
			}
		})
	}
}

// BenchmarkReplicationApply measures the replica-side apply path: one
// applier goroutine installing replicated record batches through the
// idempotent recovery-style path (ns/op is per record, batches of 256 —
// the pipeline's delivery batch size). "memory" isolates the in-memory
// apply; "durable-never" adds the replica's own WAL re-logging.
func BenchmarkReplicationApply(b *testing.B) {
	const batchSize = 256
	for _, mode := range []string{"memory", "durable-never"} {
		b.Run(mode, func(b *testing.B) {
			opts := &store.Options{}
			if mode != "memory" {
				opts.DataDir = b.TempDir()
				opts.Durability = store.Durability{Fsync: wal.FsyncNever}
			}
			s, err := store.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			s.SetReadOnly(true)
			// Prebuilt after-images: the apply path owns the pointers and
			// never mutates them, so reuse across records is safe.
			docs := make([]*document.Document, batchSize)
			for i := range docs {
				docs[i] = document.New(fmt.Sprintf("d%05d", i), map[string]any{"rank": int64(i), "tag": "t001"})
				docs[i].Version = 1
			}
			batch := make([]wal.Record, 0, batchSize)
			b.ReportAllocs()
			b.ResetTimer()
			seq := uint64(0)
			for done := 0; done < b.N; {
				n := batchSize
				if rem := b.N - done; rem < n {
					n = rem
				}
				batch = batch[:0]
				for i := 0; i < n; i++ {
					seq++
					batch = append(batch, wal.Record{Seq: seq, Kind: wal.KindPut, Table: "docs", Doc: docs[i]})
				}
				applied, err := s.ApplyReplicated(batch)
				if err != nil {
					b.Fatal(err)
				}
				if applied != n {
					b.Fatalf("applied %d of %d", applied, n)
				}
				done += n
			}
		})
	}
}

// BenchmarkImportSnapshotSwap measures a replica re-bootstrap end to
// end — shadow table build, secondary-index rebuild, atomic swap, and
// the old-vs-imported diff feeding the synthetic event fan-out — per
// document count. A quarter of the old documents vanish, three quarters
// are re-versioned, and a quarter of the imported set is new, so the
// diff exercises every branch. ns/op is one whole import of the larger
// state.
func BenchmarkImportSnapshotSwap(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			// Source state: d[n/4, n) written twice (re-versioned),
			// d[n, 5n/4) new; d[0, n/4) absent (deleted inside the
			// collapsed range relative to the target below).
			src := store.MustOpen(nil)
			defer src.Close()
			if err := src.CreateTable("docs"); err != nil {
				b.Fatal(err)
			}
			if err := src.CreateIndex("docs", "rank"); err != nil {
				b.Fatal(err)
			}
			putDoc := func(s *store.Store, i int) {
				if err := s.Put("docs", document.New(fmt.Sprintf("d%06d", i), map[string]any{"rank": int64(i)})); err != nil {
					b.Fatal(err)
				}
			}
			for pass := 0; pass < 2; pass++ {
				for i := n / 4; i < n; i++ {
					putDoc(src, i)
				}
			}
			for i := n; i < n+n/4; i++ {
				putDoc(src, i)
			}
			var snapBuf bytes.Buffer
			if _, _, err := src.ExportSnapshot(&snapBuf); err != nil {
				b.Fatal(err)
			}
			snap := snapBuf.Bytes()

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tgt := store.MustOpen(nil)
				if err := tgt.CreateTable("docs"); err != nil {
					b.Fatal(err)
				}
				if err := tgt.CreateIndex("docs", "rank"); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					putDoc(tgt, j)
				}
				b.StartTimer()
				info, err := tgt.ImportSnapshot(bytes.NewReader(snap))
				if err != nil {
					b.Fatal(err)
				}
				if info.SyntheticDeletes != n/4 || info.SyntheticPuts != n {
					b.Fatalf("diff = %d deletes + %d puts, want %d + %d",
						info.SyntheticDeletes, info.SyntheticPuts, n/4, n)
				}
				b.StopTimer()
				tgt.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(n), "docs/op")
		})
	}
}

// BenchmarkStoreWriteReplicated is the primary-side cost of having one
// attached replica: the fsync=never write path with 64 concurrent
// writers, measured three ways.
//
//   - "baseline": no subscriber (the PR 3 write path).
//   - "fanout-only": a SubscribeFrom consumer drains every batch but does
//     no apply work. This isolates what the write path itself pays for an
//     attached replica — the fan-out append, pump hand-off and Block
//     backpressure — which is the ≤10% budget: on a real deployment the
//     replica's apply CPU lives on another machine.
//   - "replica-attached": the full in-process pump (convert + idempotent
//     apply into a second store). On a multi-core host the pump rides
//     spare cores and tracks fanout-only; on a starved host (1-vCPU CI)
//     it timeshares the writers' core and honestly shows that cost.
//
// The workload bounds the key space so the live heap stays stable — an
// in-process replica doubles the resident data set, and an unbounded
// workload would bill its GC cost to the write path that a real replica
// never pays.
func BenchmarkStoreWriteReplicated(b *testing.B) {
	const keys = 1 << 14
	for _, variant := range []string{"baseline", "fanout-only", "replica-attached"} {
		b.Run(variant, func(b *testing.B) {
			s := benchWriteStore(b, "never")
			var pumpWG sync.WaitGroup
			if variant != "baseline" {
				sub, err := s.SubscribeFrom("replica:bench", 0)
				if err != nil {
					b.Fatal(err)
				}
				var applied atomic.Uint64
				var replica *store.Store
				if variant == "replica-attached" {
					replica = store.MustOpen(nil)
					b.Cleanup(replica.Close)
					replica.SetReadOnly(true)
				}
				pumpWG.Add(1)
				go func() {
					defer pumpWG.Done()
					var recs []wal.Record
					for batch := range sub.Events() {
						if replica == nil {
							applied.Add(uint64(len(batch)))
							continue
						}
						recs = replication.AppendRecords(recs[:0], batch)
						n, err := replica.ApplyReplicated(recs)
						if err != nil {
							return
						}
						applied.Add(uint64(n))
					}
				}()
				b.Cleanup(func() {
					// Drain: every acknowledged write must have reached the
					// consumer before teardown.
					deadline := time.Now().Add(30 * time.Second)
					for applied.Load() < uint64(b.N) {
						if time.Now().After(deadline) {
							b.Fatalf("consumer stalled at %d, want %d", applied.Load(), b.N)
						}
						time.Sleep(time.Millisecond)
					}
					sub.Cancel()
					pumpWG.Wait()
				})
			}
			var n atomic.Uint64
			b.ReportAllocs()
			b.SetParallelism(64)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := n.Add(1)
					if err := s.Put("docs", document.New(fmt.Sprintf("d%07d", i%keys), map[string]any{"rank": int64(i)})); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// benchWriteStore opens a store for the write-path comparison: mode "" is
// in-memory, anything else is a WAL fsync policy.
func benchWriteStore(b *testing.B, mode string) *store.Store {
	b.Helper()
	opts := &store.Options{}
	if mode != "" {
		policy, err := wal.ParseFsyncPolicy(mode)
		if err != nil {
			b.Fatal(err)
		}
		opts.DataDir = b.TempDir()
		opts.Durability = store.Durability{Fsync: policy}
	}
	s, err := store.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	if err := s.CreateTable("docs"); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreWrite compares the store's end-to-end write path:
// in-memory vs the WAL under each fsync policy, serial and with 64
// concurrent writers, reporting the group committer's fsyncs per write
// and mean batch: the batching that makes fsync=always affordable.
func BenchmarkStoreWrite(b *testing.B) {
	for _, mode := range []string{"memory", "never", "interval", "always"} {
		walMode := mode
		if mode == "memory" {
			walMode = ""
		}
		b.Run(mode+"/serial", func(b *testing.B) {
			s := benchWriteStore(b, walMode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put("docs", document.New(fmt.Sprintf("d%07d", i), map[string]any{"rank": int64(i)})); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportGroupCommit(b, s)
		})
		b.Run(mode+"/writers-64", func(b *testing.B) {
			s := benchWriteStore(b, walMode)
			var n atomic.Uint64
			b.ReportAllocs()
			b.SetParallelism(64)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := n.Add(1)
					if err := s.Put("docs", document.New(fmt.Sprintf("d%07d", i), map[string]any{"rank": int64(i)})); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			reportGroupCommit(b, s)
		})
	}
}

// reportGroupCommit reports a durable store's fsyncs per write and mean
// group-commit batch; an in-memory store has neither.
func reportGroupCommit(b *testing.B, s *store.Store) {
	if st, ok := s.DurabilityStats(); ok && st.WAL.Appends > 0 {
		b.ReportMetric(float64(st.WAL.Fsyncs)/float64(st.WAL.Appends), "fsyncs/op")
		b.ReportMetric(st.WAL.MeanBatch, "records/batch")
	}
}

// BenchmarkIndexUpdateSharedValue measures one update of a document whose
// indexed array shares an element with every other document — a
// low-cardinality field — at two list lengths: the remove and re-post
// cost stays flat as the shared posting list grows a hundredfold.
func BenchmarkIndexUpdateSharedValue(b *testing.B) {
	for _, n := range []int{200, 20000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			f := index.NewField("tags")
			docs := make([][2]*document.Document, n)
			for i := range docs {
				id := fmt.Sprintf("d%05d", i)
				docs[i] = [2]*document.Document{
					document.New(id, map[string]any{"tags": []any{"common", "x"}}),
					document.New(id, map[string]any{"tags": []any{"common", "y"}}),
				}
				f.Add(docs[i][0])
			}
			order := rand.New(rand.NewSource(1)).Perm(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := &docs[order[i%n]]
				f.Remove(d[0])
				f.Add(d[1])
				d[0], d[1] = d[1], d[0]
			}
		})
	}
}
