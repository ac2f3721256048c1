package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"quaestor/internal/cache"
	"quaestor/internal/client"
	"quaestor/internal/commitlog"
	"quaestor/internal/ebf"
	"quaestor/internal/invalidb"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
	"quaestor/internal/wal"
	"quaestor/internal/workload"
)

// The traced replay runs in this process, on one goroutine and one clock,
// so spans from both sides of the wire nest truly. It never touches the
// spawned server: spans are recorded from the benchmark's own files,
// around the calls into each layer.
//
//	stack "wire":   client.Client → tracingTransport → loopback http.Server
//	                → handler wrapper → srv.Handler()
//	                spans client.<op> ⊃ wire.<op> ⊃ http.<op>
//	stack "direct": the same ops against an identically loaded server,
//	                span server.<op> around Server.Read/Query/Update/Insert
//	stack "parts":  the calls a server op makes into each layer, on
//	                standalone instances fed the same keys in the same order

// span is one timed interval. Spans of one op share Op, the op's index in
// the schedule; Parent is the id of the span that caused it (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Stack  string `json:"stack"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the replay ends. With on == false
// begin and end do nothing, which is the "spans off" side of
// trace.overhead_share.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex // the loopback server's handler runs on its own goroutine
	spans []span
}

func (t *tracer) begin(stack string, parent, op int, name string) int {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Stack: stack, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed records fn as one span of the parts stack.
func (t *tracer) timed(op int, name string, fn func()) time.Duration {
	id := t.begin("parts", 0, op, name)
	fn()
	t.end(id)
	return t.spans[id-1].dur()
}

// Request headers that let the server-side interposer attach its span to
// the client-side one: the op's index, the wire span's id and its name
// after "wire" (".read", ".ebf", …).
const (
	headerOp    = "X-Bench-Op"
	headerSpan  = "X-Bench-Span"
	headerClass = "X-Bench-Class"
)

// tracingTransport is the client-side interposer: a wire.<op> span from
// the moment the SDK hands over a request until it has consumed the
// response body, and the headers that let the server-side interposer
// attach its span to it.
type tracingTransport struct {
	next *http.Transport
	tr   *tracer
	// Set by the replay loop before each op; everything runs on its
	// goroutine.
	op     int
	class  string
	parent int
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	class := "." + t.class
	if req.URL.Path == "/v1/ebf" {
		class = ".ebf"
	}
	id := t.tr.begin("wire", t.parent, t.op, "wire"+class)
	req.Header.Set(headerOp, strconv.Itoa(t.op))
	req.Header.Set(headerSpan, strconv.Itoa(id))
	req.Header.Set(headerClass, class)
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.tr.end(id) }}
	return resp, nil
}

// spanBody ends a span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.done()
	return err
}

// tracingHandler is the server-side interposer: an http.<op> span around
// the server's own handler.
func tracingHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.Atoi(r.Header.Get(headerOp))
		parent, _ := strconv.Atoi(r.Header.Get(headerSpan))
		id := tr.begin("wire", parent, op, "http"+r.Header.Get(headerClass))
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// invalidbConfig mirrors cmd/quaestor-server's defaults.
func invalidbConfig(spec *workloadSpec) *invalidb.Config {
	maxQueries := 10000
	if spec.MaxQueries > 0 {
		maxQueries = spec.MaxQueries
	}
	return &invalidb.Config{QueryPartitions: 2, ObjectPartitions: 2, MaxQueries: maxQueries}
}

// openStore opens a store like the spawned server's (durable with
// -fsync always when asked, under a fresh directory in scratch) and loads
// the dataset and tag indexes into it. The returned cleanup closes the
// store and removes its directory.
func openStore(ds *workload.Dataset, durable bool, scratch string) (db *store.Store, cleanup func(), err error) {
	opts := &store.Options{}
	dir := ""
	if durable {
		if dir, err = os.MkdirTemp(scratch, "trace-"); err != nil {
			return nil, nil, err
		}
		opts.DataDir = dir
		opts.Durability = store.Durability{Fsync: wal.FsyncAlways}
	}
	cleanup = func() {
		if db != nil {
			db.Close()
		}
		if dir != "" {
			_ = os.RemoveAll(dir) // scratch under .bench_build
		}
	}
	if db, err = store.Open(opts); err != nil {
		cleanup()
		return nil, nil, err
	}
	for _, t := range ds.Tables {
		if err = errors.Join(db.CreateTable(t), db.CreateIndex(t, "tags")); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	// Loading from many goroutines lets a durable store group-commit;
	// serially, every document would wait for its own fsync.
	const loadParallel = 64
	errs := make([]error, loadParallel)
	var wg sync.WaitGroup
	for l := 0; l < loadParallel; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for _, t := range ds.Tables {
				docs := ds.Docs[t]
				for i := l; i < len(docs); i += loadParallel {
					if err := db.Insert(t, docs[i]); err != nil {
						errs[l] = err
						return
					}
				}
			}
		}(l)
	}
	wg.Wait()
	if err = errors.Join(errs...); err != nil {
		cleanup()
		return nil, nil, err
	}
	return db, cleanup, nil
}

// instance is one in-process server loaded like the spawned one.
type instance struct {
	srv   *server.Server
	close func()
}

func newInstance(spec *workloadSpec, ds *workload.Dataset, scratch string) (*instance, error) {
	db, closeStore, err := openStore(ds, spec.Durable, scratch)
	if err != nil {
		return nil, err
	}
	srv := server.New(db, &server.Options{InvaliDB: invalidbConfig(spec)})
	return &instance{srv: srv, close: func() {
		srv.Close()
		closeStore()
	}}, nil
}

// replayWire runs ops through stack "wire" on a fresh instance and
// returns how long the replay took.
func replayWire(spec *workloadSpec, sched *schedule, ops []schedOp, tr *tracer, scratch string) (time.Duration, error) {
	in, err := newInstance(spec, sched.Dataset, scratch)
	if err != nil {
		return 0, err
	}
	defer in.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	httpSrv := &http.Server{Handler: tracingHandler(tr, in.srv.Handler())}
	served := make(chan struct{})
	go func() {
		_ = httpSrv.Serve(ln) // returns ErrServerClosed on Close
		close(served)
	}()
	defer func() {
		_ = httpSrv.Close()
		<-served
	}()

	tt := &tracingTransport{next: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, tr: tr, op: -1, class: "dial"}
	defer tt.next.CloseIdleConnections()
	sess, err := newSession(spec, "http://"+ln.Addr().String(), tt)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := range ops {
		op := &ops[i].Op
		tt.op, tt.class = i, opClass(op.Type)
		id := tr.begin("wire", 0, i, "client."+tt.class)
		tt.parent = id
		ans := call(sess.cl, op)
		tr.end(id)
		if ans.err != nil {
			return 0, fmt.Errorf("op %d (%s %s/%s): %w", i, op.Type, op.Table, op.DocID, ans.err)
		}
	}
	return time.Since(start), nil
}

// callServer sends one op straight into a Server, as its HTTP handlers
// would.
func callServer(srv *server.Server, op *workload.Op) error {
	var err error
	switch op.Type {
	case workload.OpRead:
		_, err = srv.Read(op.Table, op.DocID)
	case workload.OpQuery:
		_, err = srv.Query(op.Query)
	case workload.OpUpdate:
		_, err = srv.Update(op.Table, op.DocID, updateSpec(op))
	case workload.OpInsert:
		err = srv.Insert(op.Table, insertDoc(op))
	}
	return err
}

// replayDirect runs ops through stack "direct" on a fresh instance, under
// the CPU profiler, and writes the CPU and allocation profiles.
func replayDirect(spec *workloadSpec, sched *schedule, ops []schedOp, tr *tracer, scratch, outPrefix string) error {
	in, err := newInstance(spec, sched.Dataset, scratch)
	if err != nil {
		return err
	}
	defer in.close()
	cpuFile, err := os.Create(outPrefix + ".cpu.pprof")
	if err != nil {
		return err
	}
	defer cpuFile.Close()
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		return err
	}
	for i := range ops {
		op := &ops[i].Op
		id := tr.begin("direct", 0, i, "server."+opClass(op.Type))
		err := callServer(in.srv, op)
		tr.end(id)
		if err != nil {
			pprof.StopCPUProfile()
			return fmt.Errorf("op %d (%s %s/%s): %w", i, op.Type, op.Table, op.DocID, err)
		}
	}
	pprof.StopCPUProfile()
	if err := cpuFile.Close(); err != nil {
		return err
	}
	allocFile, err := os.Create(outPrefix + ".alloc.pprof")
	if err != nil {
		return err
	}
	defer allocFile.Close()
	runtime.GC() // flush the allocation samples of the replay into the profile
	if err := pprof.Lookup("allocs").WriteTo(allocFile, 0); err != nil {
		return err
	}
	return allocFile.Close()
}

// replayParts times the calls a server op makes into each layer, on
// standalone instances fed the schedule's keys in schedule order. It
// returns, per op index, the time the parts on the op's blocking path
// took together, which server.<op>_self_us subtracts from server.<op>.
func replayParts(spec *workloadSpec, sched *schedule, ops []schedOp, tr *tracer, scratch string) ([]time.Duration, error) {
	mem, closeMem, err := openStore(sched.Dataset, false, scratch)
	if err != nil {
		return nil, err
	}
	defer closeMem()
	// The durable twin exists for wal.commit_wait: the same update on a
	// store that fsyncs before it acknowledges.
	durable, closeDurable, err := openStore(sched.Dataset, true, scratch)
	if err != nil {
		return nil, err
	}
	defer closeDurable()

	est := ttl.NewEstimator(nil)
	active := ttl.NewActiveList(16, invalidbConfig(spec).MaxQueries, time.Now)
	coh := ebf.NewPartitioned(nil)
	inv := invalidb.NewCluster(invalidbConfig(spec))
	drained := make(chan struct{})
	go func() { // nothing here consumes notifications; keep the match nodes from blocking on a full channel
		for range inv.Notifications() {
		}
		close(drained)
	}()
	defer func() {
		inv.Stop() // closes the notification channel
		<-drained
	}()
	log := commitlog.NewLog(nil)
	defer log.Close()
	view := ebf.NewClientView(coh.Snapshot())
	local := cache.New(cache.ExpirationBased, 0, time.Now)
	activated := map[string]bool{}

	blocking := make([]time.Duration, len(ops))
	for i := range ops {
		op := &ops[i].Op
		key := recordKey(op.Table, op.DocID)
		var failure error
		switch op.Type {
		case workload.OpRead:
			path := server.RecordPath(op.Table, op.DocID)
			local.Put(path, op, "", time.Hour)
			tr.timed(i, "cache.get_hit", func() { local.Get(path) })
			tr.timed(i, "ebf.client_view_lookup", func() { view.IsStale(key) })
			var dur time.Duration
			blocking[i] += tr.timed(i, "store.get", func() { _, failure = mem.Get(op.Table, op.DocID) })
			blocking[i] += tr.timed(i, "ttl.record_ttl", func() { dur = est.RecordTTL(key) })
			blocking[i] += tr.timed(i, "ebf.report_read", func() { coh.ReportRead(key, dur) })

		case workload.OpQuery:
			q := op.Query
			params, err := url.ParseQuery(client.QueryPath(q)[len("/v1/db/"+q.Table+"?"):])
			if err != nil {
				return nil, err
			}
			tr.timed(i, "query.parse", func() { _, failure = server.ParseQueryRequest(q.Table, params) })
			tr.timed(i, "query.explain", func() { _, _ = mem.Explain(q) }) // same error as QueryPlanned below
			tr.timed(i, "ebf.client_view_lookup", func() { view.IsStale(q.Key()) })
			var recordKeys []string
			blocking[i] += tr.timed(i, "store.query_planned", func() {
				res, _, err := mem.QueryPlanned(q)
				failure = errors.Join(failure, err)
				for _, d := range res {
					recordKeys = append(recordKeys, recordKey(q.Table, d.ID))
				}
			})
			var dur time.Duration
			blocking[i] += tr.timed(i, "ttl.query_ttl", func() { dur = est.QueryTTL(q.Key(), recordKeys) })
			blocking[i] += tr.timed(i, "ttl.admit", func() { active.Admit(q.Key(), dur, recordKeys, ttl.ObjectList) })
			if !activated[q.Key()] {
				activated[q.Key()] = true
				initial, err := mem.Query(q)
				if err != nil {
					return nil, err
				}
				blocking[i] += tr.timed(i, "invalidb.activate", func() {
					// At capacity the server serves the query uncached; the
					// refused call is still what it paid.
					if err := inv.Activate(invalidb.Registration{Query: q, InitialMatches: initial, AsOfSeq: mem.LastSeq()}); err != nil && !errors.Is(err, invalidb.ErrAtCapacity) {
						failure = errors.Join(failure, err)
					}
				})
			}
			blocking[i] += tr.timed(i, "ebf.report_read", func() {
				coh.ReportRead(q.Key(), dur)
				for _, rk := range recordKeys {
					coh.ReportRead(rk, dur)
				}
			})

		default: // update, insert
			ev := commitlog.Event{Table: op.Table, Op: commitlog.OpUpdate, Time: time.Now()}
			write := func(db *store.Store) func() {
				return func() {
					if op.Type == workload.OpInsert {
						failure = errors.Join(failure, db.Insert(op.Table, insertDoc(op)))
						return
					}
					doc, err := db.Update(op.Table, op.DocID, updateSpec(op))
					failure = errors.Join(failure, err)
					ev.After = doc
				}
			}
			if op.Type == workload.OpInsert {
				ev.Op, ev.After = commitlog.OpInsert, insertDoc(op)
			} else if prev, err := mem.Get(op.Table, op.DocID); err == nil {
				ev.Before = prev
			}
			inMemory := tr.timed(i, "store.update", write(mem))
			onDisk := tr.timed(i, "store.update_durable", write(durable))
			if spec.Durable {
				blocking[i] += onDisk
			} else {
				blocking[i] += inMemory
			}
			blocking[i] += tr.timed(i, "ttl.observe_write", func() { est.ObserveWrite(key) })
			blocking[i] += tr.timed(i, "ebf.report_write", func() { coh.ReportWrite(key) })
			ev.Seq = uint64(i + 1)
			tr.timed(i, "invalidb.ingest", func() { inv.Ingest(ev) })
			tr.timed(i, "commitlog.publish", func() { log.Append([]commitlog.Event{ev}) })
		}
		if failure != nil {
			return nil, fmt.Errorf("op %d (%s %s/%s): %w", i, op.Type, op.Table, op.DocID, failure)
		}
		// The SDK fetches a snapshot once per Δ; at the workload's rate that
		// is once per this many ops.
		if every := int(spec.Rate * refreshInterval.Seconds()); i%every == 0 {
			tr.timed(i, "ebf.snapshot", func() { view.Refresh(coh.Snapshot()) })
		}
	}
	return blocking, nil
}

// traceFile is what a traced replay writes to out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	// SpanP50Us is the median duration of every span name, the quick way
	// into the file.
	SpanP50Us map[string]float64 `json:"span_p50_us"`
	Spans     []span             `json:"spans"`
}

// tracedReplay replays the first ops of the workload's schedule through
// the three stacks, writes the span file and profiles, and adds the
// traced per-layer metrics to res.
func tracedReplay(cfg *runConfig, spec *workloadSpec, sched *schedule, res *runResult) error {
	outDir := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	scratch := cfg.scratch()
	ops := sched.Timed[:min(traceOps, len(sched.Timed))]

	// Spans off, then on: identical stacks on fresh instances, so the
	// difference is what tracing costs.
	off, err := replayWire(spec, sched, ops, &tracer{}, scratch)
	if err != nil {
		return err
	}
	tr := &tracer{on: true, epoch: time.Now()}
	on, err := replayWire(spec, sched, ops, tr, scratch)
	if err != nil {
		return err
	}
	if err := replayDirect(spec, sched, ops, tr, scratch, filepath.Join(outDir, spec.Name)); err != nil {
		return err
	}
	blocking, err := replayParts(spec, sched, ops, tr, scratch)
	if err != nil {
		return err
	}

	p50 := traceMetrics(res, tr.spans, ops, blocking)
	res.set("trace.overhead_share", max(ratio(float64(on-off), float64(off)), 0))
	return writeJSONFile(filepath.Join(outDir, spec.Name+".trace.json"), traceFile{
		Workload: spec.Name, Seed: cfg.seed, Ops: len(ops), SpanP50Us: p50, Spans: tr.spans,
	})
}

// traceMetrics derives the self-time ladder and the part costs from the
// spans and returns the median duration per span name.
func traceMetrics(res *runResult, spans []span, ops []schedOp, blocking []time.Duration) map[string]float64 {
	byName := map[string][]float64{}
	children := map[int]time.Duration{} // span id → time its children cover
	type perOp struct {
		http   []*span
		server *span
		mem    time.Duration // store.update
		disk   time.Duration // store.update_durable
	}
	perOps := make([]perOp, len(ops))
	for i := range spans {
		s := &spans[i]
		byName[s.Name] = append(byName[s.Name], us(s.dur()))
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
		if s.Op < 0 {
			continue // the session's dial-time EBF fetch
		}
		switch {
		case s.Stack == "direct":
			perOps[s.Op].server = s
		case s.Stack == "wire" && s.Name == "http."+opClass(ops[s.Op].Type):
			perOps[s.Op].http = append(perOps[s.Op].http, s)
		case s.Name == "store.update":
			perOps[s.Op].mem = s.dur()
		case s.Name == "store.update_durable":
			perOps[s.Op].disk = s.dur()
		}
	}

	self := map[string][]float64{}
	for i := range spans {
		s := &spans[i]
		if s.Stack == "wire" && s.Name != "wire.ebf" && !strings.HasPrefix(s.Name, "http.") {
			self[s.Name] = append(self[s.Name], us(s.dur()-children[s.ID])) // client.<op>, wire.<op>
		}
	}
	var commitWait []float64
	for i, po := range perOps {
		class := opClass(ops[i].Type)
		// An id-list query fans out into several exchanges; only an op with
		// one exchange matches the direct stack's single server span.
		if len(po.http) == 1 && po.server != nil {
			self["http."+class] = append(self["http."+class], us(po.http[0].dur()-po.server.dur()))
		}
		if po.server != nil {
			self["server."+class] = append(self["server."+class], us(po.server.dur()-blocking[i]))
		}
		if class == "write" {
			commitWait = append(commitWait, us(po.disk-po.mem))
		}
	}

	p50 := map[string]float64{}
	for name, v := range byName {
		p50[name] = median(v)
	}
	for _, layer := range []string{"client", "wire", "http", "server"} {
		for _, class := range opClasses {
			if v := self[layer+"."+class]; len(v) > 0 {
				res.set(layer+"."+class+"_self_us", max(median(v), 0))
			}
		}
	}
	byName["wal.commit_wait"] = commitWait
	for _, part := range partSpans {
		if v := byName[part.Name]; len(v) > 0 {
			res.set(part.Name+"_us", max(median(v), 0))
		}
	}
	return p50
}
