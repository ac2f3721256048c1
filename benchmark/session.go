package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"quaestor/internal/client"
	"quaestor/internal/document"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
	"quaestor/internal/workload"
)

// countingTransport is the benchmark-owned RoundTripper under each
// session's SDK client. It sees every exchange the SDK makes, which is how
// the benchmark tells a locally answered op from a network one and reads
// the TTLs the server issues, all from outside the SDK.
type countingTransport struct {
	next http.RoundTripper

	sent      atomic.Uint64 // every exchange
	requests  atomic.Uint64 // op exchanges (everything but EBF fetches)
	ttlCount  atomic.Uint64 // cacheable GET answers
	ttlSumSec atomic.Uint64 // Σ max-age over them
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.sent.Add(1)
	isEBF := req.URL.Path == "/v1/ebf"
	if !isEBF {
		t.requests.Add(1)
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if req.Method == http.MethodGet && !isEBF {
		if age := maxAgeSeconds(resp.Header.Get("Cache-Control")); age > 0 {
			t.ttlCount.Add(1)
			t.ttlSumSec.Add(uint64(age))
		}
	}
	return resp, nil
}

// maxAgeSeconds extracts max-age from a Cache-Control value (0 if absent
// or no-store).
func maxAgeSeconds(cc string) int {
	for _, d := range strings.Split(cc, ",") {
		d = strings.TrimSpace(d)
		if d == "no-store" {
			return 0
		}
		if v, ok := strings.CutPrefix(d, "max-age="); ok {
			if n, err := strconv.Atoi(v); err == nil {
				return n
			}
		}
	}
	return 0
}

// session is one SDK client.Client on its own single-connection
// transport, plus what the benchmark remembers about it for the hard
// checks. A session is driven by one goroutine at a time.
type session struct {
	cl  *client.Client
	rt  *countingTransport
	own map[string]int64 // record key → version of this session's newest acked write
}

// newSession dials the SDK against base over rt (nil = a fresh
// single-connection HTTP transport).
func newSession(spec *workloadSpec, base string, rt http.RoundTripper) (*session, error) {
	if rt == nil {
		rt = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	}
	ct := &countingTransport{next: rt}
	cl, err := client.Dial(&client.Options{
		BaseURL:         base,
		Transport:       ct,
		RefreshInterval: refreshInterval,
		DisableCache:    !spec.Cached,
		DisableEBF:      !spec.Cached,
	})
	if err != nil {
		return nil, fmt.Errorf("dialing SDK session: %w", err)
	}
	return &session{cl: cl, rt: ct, own: map[string]int64{}}, nil
}

// closeIdle drops the session's pooled connection, if it has one.
func (s *session) closeIdle() {
	if tr, ok := s.rt.next.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// outcome is what one executed op contributed to the run's accounting.
type outcome struct {
	class   string
	failed  bool // transport error, error status or wrong content
	local   bool // answered without a network exchange
	verdict verdict
	judged  bool // a read or query the shadow model judged
	done    time.Time
}

// hardf reports a violated hard check: the run exits non-zero without
// reporting a metric.
func hardf(format string, args ...any) error {
	return fmt.Errorf("hard check failed: "+format, args...)
}

// insertDoc is the document an insert op creates.
func insertDoc(op *workload.Op) *document.Document {
	return document.New(op.DocID, map[string]any{
		"tags":   []any{op.UpdateTag},
		"title":  "Post " + op.DocID + " in " + op.Table,
		"rating": int64(1),
	})
}

// answer is what the SDK returned for one op.
type answer struct {
	doc *document.Document // read, update
	res *client.Result     // query
	err error
}

// call sends one op through an SDK client. The timed phases and the
// traced replay both go through it, so they drive the SDK identically.
func call(cl *client.Client, op *workload.Op) answer {
	switch op.Type {
	case workload.OpRead:
		doc, err := cl.Read(op.Table, op.DocID)
		return answer{doc: doc, err: err}
	case workload.OpQuery:
		res, err := cl.Query(op.Query)
		return answer{res: res, err: err}
	case workload.OpUpdate:
		doc, err := cl.Update(op.Table, op.DocID, updateSpec(op))
		return answer{doc: doc, err: err}
	case workload.OpInsert:
		return answer{err: cl.Insert(op.Table, insertDoc(op))}
	default:
		panic("benchmark: workloads never generate " + op.Type.String() + " ops") // a bug in spec.go
	}
}

// updateSpec is the tag flip an update op applies.
func updateSpec(op *workload.Op) store.UpdateSpec {
	return store.UpdateSpec{Set: map[string]any{"tags": []any{op.UpdateTag}}}
}

// exec runs one op through the session's SDK client, checks the answer
// and judges it against the shadow model. epoch is the run's time origin.
// A non-nil error is a hard-check violation; ordinary failures are
// reported in the outcome.
func (s *session) exec(op *workload.Op, sh *shadow, epoch time.Time) (outcome, error) {
	out := outcome{class: opClass(op.Type)}
	before := s.rt.requests.Load()
	issued := time.Now()
	ans := call(s.cl, op)
	out.done = time.Now()
	if ans.err != nil {
		out.failed = true
		return out, nil
	}
	out.local = s.rt.requests.Load() == before
	send, ack := issued.Sub(epoch), out.done.Sub(epoch)
	key := recordKey(op.Table, op.DocID)

	switch op.Type {
	case workload.OpRead:
		switch {
		case ans.doc.ID != op.DocID:
			return out, hardf("read %s returned document %q", key, ans.doc.ID)
		case ans.doc.Version < s.own[key]:
			return out, hardf("read %s returned version %d, older than the session's own acked write %d", key, ans.doc.Version, s.own[key])
		}
		out.verdict, out.judged = sh.judgeRead(op.Table, op.DocID, ans.doc.Version, send), true

	case workload.OpQuery:
		// Object lists are one server-side snapshot, so every member must
		// satisfy the predicate. An id list is assembled from per-record
		// reads that may be newer than the list; a non-member there is
		// staleness, which the shadow model judges, not corruption.
		if ans.res.Representation == ttl.ObjectList {
			for _, d := range ans.res.Docs {
				if !op.Query.Matches(d) {
					return out, hardf("query %s returned %s, which does not satisfy the predicate", op.Query.Key(), d.ID)
				}
			}
		}
		out.verdict, out.judged = sh.judgeQuery(op.Table, queryTag(op.Query), ans.res.IDs, send, ack), true

	case workload.OpUpdate:
		tags := docTags(ans.doc)
		if ans.doc.ID != op.DocID || len(tags) != 1 || tags[0] != op.UpdateTag {
			out.failed = true // wrong content
			return out, nil
		}
		s.acked(key, ans.doc.Version)
		sh.ackWrite(op.Table, op.DocID, ans.doc.Version, tags, send, ack)

	case workload.OpInsert:
		s.acked(key, 1)
		sh.ackWrite(op.Table, op.DocID, 1, []string{op.UpdateTag}, send, ack)
	}
	return out, nil
}

func (s *session) acked(key string, version int64) {
	if version > s.own[key] {
		s.own[key] = version
	}
}
