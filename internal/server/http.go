package server

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"quaestor/internal/cache"
	"quaestor/internal/coordinator"
	"quaestor/internal/document"
	"quaestor/internal/ebf"
	"quaestor/internal/query"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
)

// Handler returns the REST API as an http.Handler:
//
//	GET    /v1/ebf[?table=…][&epoch=…&since=…] — flat EBF snapshot (base64 in JSON), its position, and what was flagged since the poller's
//	POST   /v1/tables/{table}          — create table
//	GET    /v1/db/{table}/{id}         — read record (cacheable)
//	PUT    /v1/db/{table}/{id}         — upsert record
//	PATCH  /v1/db/{table}/{id}         — partial update (UpdateSpec JSON)
//	DELETE /v1/db/{table}/{id}         — delete record
//	POST   /v1/db/{table}              — insert record
//	GET    /v1/db/{table}?q=…&sort=…&limit=…&offset=… — query (cacheable)
//	GET    /v1/db/{table}?…&stream=1   — streamed query (NDJSON, uncacheable)
//	POST   /v1/indexes/{table}         — create secondary index ({"path": …})
//	GET    /v1/indexes/{table}         — list indexed field paths
//	GET    /v1/stats                   — server statistics (plan counts, EBF, commit pipeline, WAL/recovery, per-shard cluster section)
//	POST   /v1/admin/snapshot          — snapshot every durable shard store, truncate WAL
//	POST   /v1/transaction             — BOCC transaction commit
//	GET    /v1/subscribe?table=…&q=…   — SSE query change stream
//	GET    /v1/replication/snapshot    — snapshot stream (replica bootstrap)
//	GET    /v1/replication/stream      — ordered replication frames (from=seq)
//	GET    /v1/replication/status      — primary role, or per-shard lag and staleness bound
//	POST   /v1/replication/promote     — promote a replica to writable primary (per-shard outcomes)
//
// Cacheable responses carry Cache-Control, ETag and X-Quaestor-Key headers;
// conditional requests with If-None-Match receive 304.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ebf", s.handleEBF)
	mux.HandleFunc("/v1/tables/", s.handleTables)
	mux.HandleFunc("/v1/db/", s.handleDB)
	mux.HandleFunc("/v1/indexes/", s.handleIndexes)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/transaction", s.handleTxn)
	mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	mux.HandleFunc("/v1/files/", s.handleFiles)
	mux.HandleFunc("/v1/schema/", s.handleSchema)
	mux.HandleFunc("/v1/admin/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/replication/", s.handleReplication)
	mux.HandleFunc("/v1/cluster/map", s.handleClusterMap)
	mux.HandleFunc("/v1/cluster/replicas", s.handleClusterReplicas)
	mux.HandleFunc("/v1/failover/status", s.handleFailoverStatus)
	return s.withAuth(s.withShardEpoch(mux))
}

type httpError struct {
	status int
	msg    string
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// bodyPool recycles the buffers document and query responses are encoded
// into, and the buffers decodeRequest reads request bodies into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody keeps one huge body from pinning its buffer forever.
const maxPooledBody = 1 << 20

// jsonAppender is a value with an append-style JSON encoder whose bytes
// equal encoding/json's for it (*document.Document, *QueryResponse).
type jsonAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// writeEncoded sends v the way writeJSON would — same bytes, trailing
// newline included — but encoded into a pooled buffer and written once,
// with Content-Length. An encoding failure is answered with an uncacheable
// 500 rather than a truncated 200.
func writeEncoded(w http.ResponseWriter, status int, v jsonAppender) {
	bp := bodyPool.Get().(*[]byte)
	body, err := v.AppendJSON((*bp)[:0])
	if err != nil {
		bodyPool.Put(bp)
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Del("ETag")
		writeError(w, err)
		return
	}
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
	if cap(body) <= maxPooledBody {
		*bp = body
		bodyPool.Put(bp)
	}
}

func writeError(w http.ResponseWriter, err error) {
	var he *httpError
	status := http.StatusInternalServerError
	msg := err.Error()
	switch {
	case errors.As(err, &he):
		status = he.status
		msg = he.msg
	case errors.Is(err, store.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, store.ErrExists):
		status = http.StatusConflict
	case errors.Is(err, store.ErrNoTable):
		status = http.StatusNotFound
	case errors.Is(err, store.ErrVersionCheck):
		status = http.StatusPreconditionFailed
	case errors.Is(err, store.ErrBadUpdateSpec), errors.Is(err, store.ErrEmptyID):
		status = http.StatusBadRequest
	case errors.Is(err, store.ErrReadOnly):
		// An unpromoted replica: writes belong on the primary.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": msg})
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// maxRequestBody bounds every request body the data API reads: a file, a
// document, an update spec, an index or schema definition, a transaction.
const maxRequestBody = 64 << 20

// maxBodyPresize caps what readBody allocates up front on the strength
// of a request's Content-Length, which is a claim, not bytes: a body
// larger than this grows as it arrives.
const maxBodyPresize = 1 << 20

// readBody reads r's body whole, into buf's array when that is large
// enough for its Content-Length, else into a new buffer sized from it. A
// body over maxRequestBody is refused with 413, never cut short and
// applied; one shorter than its Content-Length is a 400.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	size := int64(512) // io.ReadAll's start, for a body of unknown length
	if r.ContentLength >= 0 {
		// One byte past the length, so the read that finds the end
		// needs no room of its own.
		size = min(r.ContentLength+1, maxBodyPresize)
	}
	if int64(cap(buf)) < size {
		buf = make([]byte, 0, size)
	}
	body, err := readAll(http.MaxBytesReader(w, r.Body, maxRequestBody), buf[:0])
	return body, bodyError(err, "body")
}

// readAll is io.ReadAll reading into buf.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)] // let append pick the growth
		}
	}
}

// decodeBody decodes r's JSON body into v under readBody's bound; what
// names the body in a 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) error {
	return bodyError(json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v), what)
}

// bodyError answers a failed body read: 413 past maxRequestBody, else 400.
func bodyError(err error, what string) error {
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooLarge):
		return &httpError{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxRequestBody)}
	}
	return badRequest("invalid %s: %v", what, err)
}

// EBFResponse is the JSON body of GET /v1/ebf.
type EBFResponse struct {
	// Filter is the base64-encoded flat Bloom filter (bloom.Filter wire
	// format).
	Filter string `json:"filter"`
	// GeneratedAt is the snapshot generation time in Unix nanoseconds; the
	// client's Δ is measured against it.
	GeneratedAt int64 `json:"generatedAt"`
	// Entries is the number of currently stale keys.
	Entries int `json:"entries"`
	// Epoch and Cursor are the snapshot's position in this node's flag log
	// (ebf.Position): a client echoes them as ?epoch=&since= on its next
	// poll. A body without them comes from a server that keeps no log.
	Epoch  uint64 `json:"epoch"`
	Cursor uint64 `json:"cursor"`
	// Recent answers a positioned poll the log still covers: base64 of the
	// 8-byte little-endian ebf.Fingerprint of every key flagged after the
	// echoed position (possibly none: ""). Absent, the client must assume
	// anything was flagged.
	Recent *string `json:"recent,omitempty"`
}

// ebfEncoder is the reusable state of one GET /v1/ebf response: the filter
// in wire form, the fingerprints flagged since the poller's position, the
// JSON body around their base64, and the gzip stream with its output. The
// buffers settle at the filter's size (recent: ≤ 3 KB) after one use.
type ebfEncoder struct {
	wire   []byte
	recent []byte
	body   []byte
	zbuf   bytes.Buffer
	zw     *gzip.Writer
}

var ebfEncoders = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // a valid level: no error
	return &ebfEncoder{zw: zw}
}}

// handleEBF serves the coherence signal. Every connected client polls it
// once per Δ, so its cost scales with clients, not traffic, and the whole
// response is one pooled pass: the partitions OR-ed straight into wire
// form (ebf.Partitioned.AppendSnapshot), base64 and the JSON frame
// appended around it — the bytes json.Encoder produced for EBFResponse —
// and, for clients that accept it, a pooled gzip.Writer that is Reset,
// never built, per poll. The writer runs at gzip.BestSpeed: on the default
// 14.6 KB filter (a 19.5 KB body) level 6 bought 0–19 % fewer wire bytes
// for 4–14× the CPU, and building its compressor per poll allocated
// ≈ 890 KB (BenchmarkEBFEndpoint; before → after):
//
//	stale entries   fresh level 6       pooled level 1
//	          200   0.99 ms   1 608 B   0.08 ms   1 920 B
//	          900   2.16 ms   4 156 B   0.15 ms   5 014 B
//	        5 000   1.10 ms  10 509 B   0.29 ms  10 814 B
//	       20 000   0.88 ms  14 775 B   0.08 ms  14 755 B
//
// Every row is within a few hundred bytes of what it was, so the filter
// fits the one congestion window the paper sizes it for exactly where it
// did before (up to its 20 000-entry design point).
//
// The same pass tells a renewing client what was flagged since its last
// poll (internal/ebf, "Renewing a snapshot"): every body names the image's
// position (epoch, cursor); a poll that echoes the previous one as
// ?epoch=&since= and is still covered by the flag logs also gets "recent",
// at most 4 KB of fingerprints, omitted — never cut short — beyond that. A
// poll without a position gets the body it always got plus the two
// integers.
func (s *Server) handleEBF(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET only"})
		return
	}
	enc := ebfEncoders.Get().(*ebfEncoder)
	defer ebfEncoders.Put(enc)
	// ?table=X serves that table's partition only — clients may trade
	// extra fetches for a lower false positive rate (Section 3.3).
	table, since := parseEBFPoll(r.URL.RawQuery)
	img := s.coh.AppendSnapshot(enc.wire[:0], enc.recent[:0], table, since)
	enc.wire, enc.recent = img.Wire, img.Recent
	body := append(enc.body[:0], `{"filter":"`...)
	body = base64.StdEncoding.AppendEncode(body, img.Wire)
	body = append(body, `","generatedAt":`...)
	body = strconv.AppendInt(body, img.GeneratedAt.UnixNano(), 10)
	body = append(body, `,"entries":`...)
	body = strconv.AppendInt(body, int64(img.Entries), 10)
	body = append(body, `,"epoch":`...)
	body = strconv.AppendUint(body, img.At.Epoch, 10)
	body = append(body, `,"cursor":`...)
	body = strconv.AppendUint(body, img.At.Cursor, 10)
	if img.Covered {
		body = append(body, `,"recent":"`...)
		body = base64.StdEncoding.AppendEncode(body, img.Recent)
		body = append(body, '"')
	}
	body = append(body, "}\n"...)
	enc.body = body

	h := w.Header()
	// The EBF itself must never be cached: it is the coherence signal.
	h.Set("Cache-Control", "no-store")
	// On a replica the filter describes replica state: annotate it with
	// the staleness bound like every other replica-served read, so
	// clients can weigh the coherence signal's own age.
	s.addReplicaHeaders(w, "")
	h.Set("Content-Type", "application/json")
	// A sparse Bloom filter is highly compressible; honour gzip so the
	// piggybacked filter stays within one congestion window on the wire.
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		enc.zbuf.Reset()
		enc.zw.Reset(&enc.zbuf)
		_, _ = enc.zw.Write(body) // into a bytes.Buffer: cannot fail
		_ = enc.zw.Close()
		body = enc.zbuf.Bytes()
		h.Set("Content-Encoding", "gzip")
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// parseEBFPoll reads table, epoch and since out of a /v1/ebf query string
// without building url.Values, so a positioned poll allocates what a plain
// one does. A position that does not parse is no position.
func parseEBFPoll(rawQuery string) (table string, since ebf.Position) {
	positioned := true
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		switch name, value, _ := strings.Cut(pair, "="); name {
		case "table":
			table, _ = url.QueryUnescape(value) // "" if malformed, as url.Values has it
		case "epoch":
			var err error
			since.Epoch, err = strconv.ParseUint(value, 10, 64)
			positioned = positioned && err == nil
		case "since":
			var err error
			since.Cursor, err = strconv.ParseUint(value, 10, 64)
			positioned = positioned && err == nil
		}
	}
	if !positioned {
		since = ebf.Position{}
	}
	return table, since
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "POST only"})
		return
	}
	table := strings.TrimPrefix(r.URL.Path, "/v1/tables/")
	if table == "" || strings.Contains(table, "/") {
		writeError(w, badRequest("invalid table name %q", table))
		return
	}
	if err := s.router.CreateTable(table); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"table": table})
}

// handleIndexes serves index administration: POST creates an index from a
// {"path": "field.path"} body, GET lists the table's indexed paths.
func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	table := strings.TrimPrefix(r.URL.Path, "/v1/indexes/")
	if table == "" || strings.Contains(table, "/") {
		writeError(w, badRequest("invalid table name %q", table))
		return
	}
	switch r.Method {
	case http.MethodPost:
		var body struct {
			Path string `json:"path"`
		}
		if err := decodeBody(w, r, &body, "index"); err != nil {
			writeError(w, err)
			return
		}
		if body.Path == "" {
			writeError(w, badRequest("body must be {\"path\": \"field.path\"}"))
			return
		}
		if err := s.CreateIndex(table, body.Path); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"table": table, "path": body.Path})
	case http.MethodGet:
		paths, err := s.Indexes(table)
		if err != nil {
			writeError(w, err)
			return
		}
		s.addReplicaHeaders(w, "")
		writeJSON(w, http.StatusOK, map[string]any{"table": table, "paths": paths})
	default:
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET or POST only"})
	}
}

// PipelineSection is the commit pipeline's slice of /v1/stats: ordered
// fan-out counters with per-subscriber lag and drop accounting, the
// publish→deliver latency histogram, and how many notifications the SSE
// layer shed to slow clients.
type PipelineSection struct {
	store.PipelineStats
	SSEDropped uint64 `json:"sseDropped"`
}

// TTLSection is the TTL estimator's slice of /v1/stats.
type TTLSection struct {
	TrackedRecords int `json:"trackedRecords"`
}

// StatsResponse is the JSON body of GET /v1/stats: the activity counters,
// shard 0's commit-pipeline section (whose per-subscriber entries include
// each attached replica's lag as "replica:<name>") and, on durable
// stores, its WAL/snapshot/recovery section, and the per-shard cluster
// section.
type StatsResponse struct {
	Stats
	// EBF is the coherence filter's activity: TrackedKeys is the size of
	// its TTL table (the one per-key map on the read path) and
	// SweptEntries the total work its amortized sweeps have done.
	EBF ebf.Stats `json:"ebf"`
	// TTL is the estimator's footprint: the rate windows it tracks, one per
	// record written within the last two sampling windows plus what its
	// amortized sweep has not reached yet.
	TTL        TTLSection             `json:"ttl"`
	Pipeline   PipelineSection        `json:"pipeline"`
	Durability *store.DurabilityStats `json:"durability,omitempty"`
	// Cluster carries every shard's section (LastSeq, pipeline,
	// durability and — on a replica — replication status). Cluster-level
	// query plan aggregation rides in the top-level Stats row counters:
	// scattered queries sum per-shard RowsExamined/RowsReturned before
	// recording.
	Cluster *ClusterSection `json:"cluster"`
	// Failover is the attached coordinator's supervision state (probe
	// counters, election reports); present only on nodes running one.
	Failover *coordinator.Status `json:"failover,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	resp := StatsResponse{
		Stats: s.Stats(),
		EBF:   s.EBFStats(),
		TTL:   TTLSection{TrackedRecords: s.est.TrackedRecords()},
		Pipeline: PipelineSection{
			PipelineStats: s.router.Store(0).PipelineStats(),
			SSEDropped:    s.sseDropped.Load(),
		},
		Cluster: s.clusterSection(),
	}
	if ds, ok := s.router.Store(0).DurabilityStats(); ok {
		resp.Durability = &ds
	}
	if co := s.Coordinator(); co != nil {
		st := co.Status()
		resp.Failover = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot serves POST /v1/admin/snapshot: take a point-in-time
// snapshot of every shard and truncate the WAL segments it covers. The
// body is one store.SnapshotInfo per shard.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "POST only"})
		return
	}
	infos := make([]store.SnapshotInfo, 0, s.router.NumShards())
	for _, st := range s.router.Stores() {
		info, err := st.Snapshot()
		if err != nil {
			if errors.Is(err, store.ErrNotDurable) {
				writeError(w, &httpError{http.StatusConflict, "store is in-memory; start the server with -data-dir"})
				return
			}
			writeError(w, err)
			return
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleDB routes /v1/db/{table}[/{id}].
func (s *Server) handleDB(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/db/")
	parts := strings.SplitN(rest, "/", 2)
	table := parts[0]
	if table == "" {
		writeError(w, badRequest("missing table"))
		return
	}
	if len(parts) == 2 && parts[1] != "" {
		s.handleRecord(w, r, table, parts[1])
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.handleQuery(w, r, table)
	case http.MethodPost:
		s.handleInsert(w, r, table)
	default:
		writeError(w, &httpError{http.StatusMethodNotAllowed, "unsupported method"})
	}
}

func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request, table, id string) {
	switch r.Method {
	case http.MethodGet:
		if !s.admitRead(w, r, id) {
			return
		}
		res, err := s.Read(table, id)
		if err != nil {
			writeError(w, err)
			return
		}
		s.countServed()
		w.Header().Set("Cache-Control", cache.FormatCacheControl(s.CacheControl(res.TTL)))
		w.Header().Set("ETag", res.ETag)
		w.Header().Set(HeaderKey, RecordKey(table, id))
		s.addReplicaHeaders(w, id)
		s.addEBFGeneration(w)
		if r.Header.Get("If-None-Match") == res.ETag {
			s.revalidations.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		writeEncoded(w, http.StatusOK, res.Doc)
	case http.MethodPut:
		var doc document.Document
		if err := decodeRequest(w, r, "document", func(dec *document.Decoder) error { return dec.DocumentText(&doc) }); err != nil {
			writeError(w, err)
			return
		}
		doc.ID = id
		if err := s.Put(table, &doc); err != nil {
			writeError(w, err)
			return
		}
		s.addWriteSeq(w, id)
		writeJSON(w, http.StatusOK, map[string]string{"id": id})
	case http.MethodPatch:
		var spec store.UpdateSpec
		if err := decodeRequest(w, r, "update spec", func(dec *document.Decoder) error { return bindUpdateSpec(dec, &spec) }); err != nil {
			writeError(w, err)
			return
		}
		doc, err := s.Update(table, id, spec)
		if err != nil {
			writeError(w, err)
			return
		}
		s.addWriteSeq(w, id)
		writeEncoded(w, http.StatusOK, doc)
	case http.MethodDelete:
		if err := s.Delete(table, id); err != nil {
			writeError(w, err)
			return
		}
		s.addWriteSeq(w, id)
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, &httpError{http.StatusMethodNotAllowed, "unsupported method"})
	}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request, table string) {
	var doc document.Document
	if err := decodeRequest(w, r, "document", func(dec *document.Decoder) error { return dec.DocumentText(&doc) }); err != nil {
		writeError(w, err)
		return
	}
	if err := s.Insert(table, &doc); err != nil {
		writeError(w, err)
		return
	}
	s.addWriteSeq(w, doc.ID)
	writeEncoded(w, http.StatusCreated, insertAck(doc.ID))
}

// insertAck is the body of a 201 to POST /v1/db/{table}: {"id":…},
// encoded as encoding/json encodes map[string]string{"id": id}.
type insertAck string

// AppendJSON appends the acknowledgement.
func (id insertAck) AppendJSON(dst []byte) ([]byte, error) {
	dst = document.AppendJSONString(append(dst, `{"id":`...), string(id))
	return append(dst, '}'), nil
}

// addWriteSeq stamps a successful write response with the owning store's
// sequence at acknowledgement time — the client's read-your-writes
// low-water mark. LastSeq is at or above the write's own sequence, the
// conservative direction.
func (s *Server) addWriteSeq(w http.ResponseWriter, id string) {
	w.Header().Set(HeaderWriteSeq, strconv.FormatUint(s.router.StoreFor(id).LastSeq(), 10))
}

// addEBFGeneration piggybacks the node's EBF generation on a read
// response, so clients holding an older filter can warm their
// invalidation state from the tier that serves them.
func (s *Server) addEBFGeneration(w http.ResponseWriter) {
	if gen := s.ebfGen.Load(); gen > 0 {
		w.Header().Set(HeaderEBFGenerated, strconv.FormatInt(gen, 10))
	}
}

// countServed attributes one served read/query to this node's current
// tier (replica vs primary).
func (s *Server) countServed() {
	if s.servingAsReplica() {
		s.servedReplica.Add(1)
	} else {
		s.servedPrimary.Add(1)
	}
}

// QueryResponse is the JSON body of a query.
type QueryResponse struct {
	Representation string               `json:"rep"`
	IDs            []string             `json:"ids"`
	Docs           []*document.Document `json:"docs,omitempty"`
	Count          int                  `json:"count"`
}

// AppendJSON appends the response exactly as encoding/json would encode
// the struct, walking ids and documents directly (document.AppendJSON)
// instead of reflecting over them.
func (r *QueryResponse) AppendJSON(dst []byte) ([]byte, error) {
	out := append(dst, `{"rep":`...)
	out = document.AppendJSONString(out, r.Representation)
	out = append(out, `,"ids":`...)
	if r.IDs == nil {
		out = append(out, "null"...)
	} else {
		out = append(out, '[')
		for i, id := range r.IDs {
			if i > 0 {
				out = append(out, ',')
			}
			out = document.AppendJSONString(out, id)
		}
		out = append(out, ']')
	}
	if len(r.Docs) > 0 {
		out = append(out, `,"docs":[`...)
		for i, d := range r.Docs {
			if i > 0 {
				out = append(out, ',')
			}
			var err error
			if out, err = d.AppendJSON(out); err != nil {
				return dst, err
			}
		}
		out = append(out, ']')
	}
	out = append(out, `,"count":`...)
	out = strconv.AppendInt(out, int64(r.Count), 10)
	return append(out, '}'), nil
}

// ParseQueryRequest builds a query.Query from REST query parameters. The
// client SDK uses the same routine to construct deterministic URLs.
func ParseQueryRequest(table string, params url.Values) (*query.Query, error) {
	pred, err := query.ParseJSON([]byte(params.Get("q")))
	if err != nil {
		return nil, badRequest("invalid filter: %v", err)
	}
	q := query.New(table, pred)
	if sortSpec := params.Get("sort"); sortSpec != "" {
		var keys []query.SortKey
		for _, part := range strings.Split(sortSpec, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if strings.HasPrefix(part, "-") {
				keys = append(keys, query.Desc(part[1:]))
			} else {
				keys = append(keys, query.Asc(part))
			}
		}
		q = q.Sorted(keys...)
	}
	offset, limit := 0, 0
	if v := params.Get("offset"); v != "" {
		offset, err = strconv.Atoi(v)
		if err != nil || offset < 0 {
			return nil, badRequest("invalid offset %q", v)
		}
	}
	if v := params.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 0 {
			return nil, badRequest("invalid limit %q", v)
		}
	}
	// The executor keeps offset+limit candidates; a pair whose sum
	// overflows int names no window it could hold.
	if offset > math.MaxInt-limit {
		return nil, badRequest("offset %d + limit %d overflows", offset, limit)
	}
	if offset > 0 || limit > 0 {
		q = q.Sliced(offset, limit)
	}
	return q, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, table string) {
	params := r.URL.Query()
	q, err := ParseQueryRequest(table, params)
	if err != nil {
		writeError(w, err)
		return
	}
	if !s.admitRead(w, r, "") {
		return
	}
	if streamRequested(params.Get("stream")) {
		s.streamQuery(w, q)
		return
	}
	// The path this request is served (and cached) under is what an
	// invalidation of the query must purge.
	res, err := s.query(q, r.URL.RequestURI())
	if err != nil {
		writeError(w, err)
		return
	}
	s.countServed()

	if res.Cacheable {
		w.Header().Set("Cache-Control", cache.FormatCacheControl(s.CacheControl(res.TTL)))
	} else {
		w.Header().Set("Cache-Control", "no-store")
	}
	w.Header().Set("ETag", res.ETag)
	w.Header().Set(HeaderKey, q.Key())
	w.Header().Set(HeaderRep, res.Representation.String())
	s.addReplicaHeaders(w, "")
	s.addEBFGeneration(w)
	if r.Header.Get("If-None-Match") == res.ETag {
		s.revalidations.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := QueryResponse{
		Representation: res.Representation.String(),
		IDs:            res.IDs,
		Count:          len(res.IDs),
	}
	if res.Representation == ttl.ObjectList {
		body.Docs = res.Docs
	}
	writeEncoded(w, http.StatusOK, &body)
}

// streamRequested interprets the stream query parameter ("1", "true", …).
func streamRequested(v string) bool {
	b, err := strconv.ParseBool(v)
	return err == nil && b
}

// ndjsonFlushEvery bounds how many streamed documents may sit in the
// response writer's buffer before an explicit flush.
const ndjsonFlushEvery = 64

// streamQuery serves a query as NDJSON: one document per line. The
// result window is evaluated whole under the table's read lock, like any
// query's; what streaming saves is the response body, which is never
// built: each document's wire form is appended into one reused line
// buffer and written out, with a flush every ndjsonFlushEvery lines.
// Streamed responses are inherently uncacheable: intermediaries would
// have to buffer the whole body to cache it, defeating the point, so the
// server emits no-store and skips the TTL/EBF/activation machinery. Plan
// and row counters are still recorded.
func (s *Server) streamQuery(w http.ResponseWriter, q *query.Query) {
	docs, err := s.evaluate(q)
	if err != nil {
		writeError(w, err)
		return
	}
	s.countServed()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set(HeaderKey, q.Key())
	s.addReplicaHeaders(w, "")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var line []byte
	for n, d := range docs {
		line, err = d.AppendJSON(line[:0])
		if err == nil {
			line = append(line, '\n')
			_, err = w.Write(line)
		}
		if err != nil {
			return // an unencodable document, or the client went away mid-stream
		}
		if flusher != nil && (n+1)%ndjsonFlushEvery == 0 {
			flusher.Flush()
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
}
