package client

// Staleness-bounded read-routing properties, end to end over a real
// multi-node topology: a primary server plus N replica servers, each
// replica driven by a live log-shipping loop pulling the primary's
// change stream through an in-process transport. The tests check the
// protocol's load-bearing promises:
//
//   - a bounded read at bound 0 is primary-equivalent even while
//     concurrent writers race the readers (never served by a replica,
//     never older than the last acknowledged write);
//   - no 200 response to a bounded read ever carries a staleness above
//     the request's bound (checked at the wire, on every exchange);
//   - read-your-writes holds across replica catch-up and across a
//     promote.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/replication"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
)

// replicaNode is one replica: its own store, serving stack, and the
// replication loop feeding it.
type replicaNode struct {
	url  string
	db   *store.Store
	srv  *server.Server
	repl *replication.Replica
}

// readCluster is an in-process primary + N-replica read topology.
type readCluster struct {
	primaryURL string
	db         *store.Store
	srv        *server.Server
	replicas   []*replicaNode
	handlers   map[string]http.Handler
}

func newReadCluster(tb testing.TB, nReplicas int) *readCluster {
	tb.Helper()
	rc := &readCluster{primaryURL: "http://primary"}
	rc.db = store.MustOpen(nil)
	rc.srv = server.New(rc.db, nil)
	tb.Cleanup(func() {
		rc.srv.Close()
		rc.db.Close()
	})
	if err := rc.db.CreateTable("posts"); err != nil {
		tb.Fatal(err)
	}
	rc.handlers = map[string]http.Handler{rc.primaryURL: rc.srv.Handler()}

	// The replication stream is long-lived and needs a flushing
	// ResponseWriter, so the feed runs over a real socket; client traffic
	// stays on the in-process host-map transport.
	feed := httptest.NewServer(rc.srv.Handler())
	tb.Cleanup(feed.Close)

	var urls []string
	for i := 0; i < nReplicas; i++ {
		n := &replicaNode{url: fmt.Sprintf("http://replica-%d", i)}
		n.db = store.MustOpen(nil)
		n.repl = replication.New(replication.Options{
			Store:      n.db,
			Primary:    feed.URL,
			Name:       fmt.Sprintf("r%d", i),
			MinBackoff: 5 * time.Millisecond,
			MaxBackoff: 100 * time.Millisecond,
		})
		n.repl.Run()
		n.srv = server.New(n.db, nil)
		n.srv.AttachReplicas(n.repl)
		tb.Cleanup(func() {
			n.repl.Stop()
			n.srv.Close()
			n.db.Close()
		})
		rc.handlers[n.url] = n.srv.Handler()
		rc.replicas = append(rc.replicas, n)
		urls = append(urls, n.url)
	}
	rc.srv.SetReplicaEndpoints(rc.primaryURL, urls)
	return rc
}

// dial connects a client to the topology; replica endpoints are
// discovered from the primary's advertisement.
func (rc *readCluster) dial(tb testing.TB, opts *Options) *Client {
	tb.Helper()
	if opts == nil {
		opts = &Options{}
	}
	if opts.Transport == nil {
		opts.Transport = NewHostMapTransport(rc.handlers)
	}
	if opts.BaseURL == "" {
		opts.BaseURL = rc.primaryURL
	}
	opts.DiscoverReplicas = true
	c, err := Dial(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// waitCaughtUp blocks until every replica is streaming with bounded
// staleness and has applied everything the primary holds right now.
func (rc *readCluster) waitCaughtUp(tb testing.TB) {
	tb.Helper()
	target := rc.db.LastSeq()
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range rc.replicas {
		for {
			st := n.repl.Status()
			if st.State == replication.StateStreaming && st.StalenessMs >= 0 && st.LastSeq >= target {
				break
			}
			if time.Now().After(deadline) {
				tb.Fatalf("replica %s stuck at %+v (want streaming ≥ seq %d)", n.url, st, target)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestReplicaSetDiscovery(t *testing.T) {
	rc := newReadCluster(t, 2)
	c := rc.dial(t, nil)
	eps := c.ReplicaEndpoints()
	if len(eps) != 2 || eps[0] != "http://replica-0" || eps[1] != "http://replica-1" {
		t.Fatalf("discovered endpoints = %v", eps)
	}
}

// A relaxed bound is served by the replica tier once it has provably
// caught up — the primary sees no read traffic at all.
func TestBoundedReadServedByReplica(t *testing.T) {
	rc := newReadCluster(t, 2)
	w := rc.dial(t, nil)
	if err := w.Insert("posts", document.New("p1", map[string]any{"title": "hello"})); err != nil {
		t.Fatal(err)
	}
	rc.waitCaughtUp(t)

	r := rc.dial(t, nil)
	doc, err := r.ReadWith("posts", "p1", WithMaxStaleness(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := doc.Get("title"); v != "hello" {
		t.Fatalf("title = %v", v)
	}
	st := r.Stats()
	if st.ReadsByTier.Replica != 1 {
		t.Fatalf("ReadsByTier = %+v, want the read replica-served", st.ReadsByTier)
	}
	meta := r.LastReplicaMeta()
	if !meta.Replica || meta.StalenessMs > 5000 {
		t.Fatalf("replica meta = %+v", meta)
	}
}

// Bound 0 is primary-equivalent: while writers race the readers, no
// bounded-0 read is ever served by a replica or any cache, and every
// read observes at least the last version whose write was acknowledged
// before the read began.
func TestBoundZeroPrimaryEquivalentUnderConcurrentWrites(t *testing.T) {
	rc := newReadCluster(t, 2)
	w := rc.dial(t, nil)

	const keys = 8
	var floorMu sync.Mutex
	floor := map[string]int64{}
	for i := 0; i < keys; i++ {
		id := fmt.Sprintf("k%d", i)
		if err := w.Insert("posts", document.New(id, map[string]any{"n": int64(0)})); err != nil {
			t.Fatal(err)
		}
		floor[id] = 1
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				id := fmt.Sprintf("k%d", (g*3+i)%keys)
				doc, err := w.Update("posts", id, store.UpdateSpec{Inc: map[string]float64{"n": 1}})
				if err != nil {
					t.Error(err)
					return
				}
				floorMu.Lock()
				if doc.Version > floor[id] {
					floor[id] = doc.Version
				}
				floorMu.Unlock()
			}
		}(g)
	}

	var rdWg sync.WaitGroup
	readers := make([]*Client, 2)
	for g := range readers {
		readers[g] = rc.dial(t, nil)
		rdWg.Add(1)
		go func(c *Client, g int) {
			defer rdWg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("k%d", (g+i)%keys)
				floorMu.Lock()
				want := floor[id]
				floorMu.Unlock()
				doc, err := c.ReadWith("posts", id, WithMaxStaleness(0))
				if err != nil {
					t.Error(err)
					return
				}
				if doc.Version < want {
					t.Errorf("bound-0 read of %s returned version %d < acknowledged floor %d", id, doc.Version, want)
					return
				}
			}
		}(readers[g], g)
	}
	wg.Wait()
	close(stop)
	rdWg.Wait()

	for g, c := range readers {
		st := c.Stats()
		if st.ReadsByTier.Replica != 0 {
			t.Errorf("reader %d: %d bound-0 reads served by a replica", g, st.ReadsByTier.Replica)
		}
		if st.ReadsByTier.ClientCache != 0 {
			t.Errorf("reader %d: %d bound-0 reads served from cache", g, st.ReadsByTier.ClientCache)
		}
	}
}

// boundGuard wraps a node's handler and fails the run if any 200
// response to a bounded request reports a staleness above the request's
// bound — the end-to-end wire check that the admission protocol never
// leaks an over-bound read.
type boundGuard struct {
	inner http.Handler

	mu         sync.Mutex
	violations []string
	bounded200 int
}

func (g *boundGuard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	g.inner.ServeHTTP(rec, r)
	if bs := r.Header.Get(server.HeaderMaxStaleness); bs != "" && rec.Code == http.StatusOK {
		g.mu.Lock()
		g.bounded200++
		if ss := rec.Header().Get("X-Quaestor-Staleness-Ms"); ss != "" {
			bound, _ := strconv.ParseFloat(bs, 64)
			stale, _ := strconv.ParseFloat(ss, 64)
			if stale < 0 || stale > bound {
				g.violations = append(g.violations,
					fmt.Sprintf("%s %s: staleness %.2fms exceeds bound %.2fms", r.Method, r.URL.Path, stale, bound))
			}
		}
		g.mu.Unlock()
	}
	for k, vs := range rec.Header() {
		w.Header()[k] = vs
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// Every bounded read's response staleness stays within its requested
// bound while writers churn and one replica is killed mid-run (its
// growing staleness must divert reads, not violate bounds).
func TestNoResponseExceedsItsBound(t *testing.T) {
	rc := newReadCluster(t, 2)
	guards := map[string]*boundGuard{}
	wrapped := map[string]http.Handler{}
	for url, h := range rc.handlers {
		g := &boundGuard{inner: h}
		guards[url] = g
		wrapped[url] = g
	}
	transport := NewHostMapTransport(wrapped)

	w := rc.dial(t, &Options{Transport: transport})
	for i := 0; i < 10; i++ {
		if err := w.Insert("posts", document.New(fmt.Sprintf("d%d", i), map[string]any{"n": int64(0)})); err != nil {
			t.Fatal(err)
		}
	}
	rc.waitCaughtUp(t)

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
			if _, err := w.Update("posts", fmt.Sprintf("d%d", i%10), store.UpdateSpec{Inc: map[string]float64{"n": 1}}); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	reader := rc.dial(t, &Options{Transport: transport})
	bounds := []time.Duration{
		2 * time.Millisecond, 50 * time.Millisecond, time.Second, 5 * time.Second,
	}
	for i := 0; i < 400; i++ {
		if i == 200 {
			// Kill one replica's feed: its staleness grows past every
			// bound, and routing must divert without ever leaking an
			// over-bound 200.
			rc.replicas[1].repl.Stop()
		}
		id := fmt.Sprintf("d%d", i%10)
		if _, err := reader.ReadWith("posts", id, WithMaxStaleness(bounds[i%len(bounds)])); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	served := 0
	for url, g := range guards {
		g.mu.Lock()
		for _, v := range g.violations {
			t.Errorf("%s: %s", url, v)
		}
		served += g.bounded200
		g.mu.Unlock()
	}
	if served == 0 {
		t.Fatal("no bounded read was ever served — the guard checked nothing")
	}
	if st := reader.Stats(); st.ReadsByTier.Replica == 0 {
		t.Error("no read was replica-served; the topology exercised nothing")
	}
}

// Read-your-writes holds across the replica lifecycle: a session that
// wrote a record always reads back at least its own write — while the
// replica is still catching up (the min-seq floor forces a 412 and a
// primary fallback), once it has caught up, and after it is promoted.
// The reads are plain bounded reads: the write's forced revalidation and
// min-seq floor are what keep them at or above it.
func TestReadYourWritesAcrossPromote(t *testing.T) {
	rc := newReadCluster(t, 1)
	c := rc.dial(t, nil)

	bounded := WithMaxStaleness(10 * time.Second)
	var version int64
	for i := 0; i < 20; i++ {
		doc, err := c.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"n": int64(i)}})
		if err != nil && i == 0 {
			// First iteration creates the record.
			if err = c.Insert("posts", document.New("p1", map[string]any{"n": int64(0)})); err != nil {
				t.Fatal(err)
			}
			doc, err = c.Read("posts", "p1")
		}
		if err != nil {
			t.Fatal(err)
		}
		version = doc.Version
		got, err := c.ReadWith("posts", "p1", bounded)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version < version {
			t.Fatalf("iteration %d: read version %d < own write %d", i, got.Version, version)
		}
	}
	if st := c.Stats(); st.ReadsByTier.Replica+st.StalenessRetries == 0 {
		t.Errorf("no bounded read reached the replica tier: %+v", st.ReadsByTier)
	}

	rc.waitCaughtUp(t)
	rc.replicas[0].repl.Stop()
	rc.replicas[0].repl.Promote()
	got, err := c.ReadWith("posts", "p1", bounded)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version < version {
		t.Fatalf("post-promote read version %d < own write %d", got.Version, version)
	}
}

// BenchmarkReplicaRead measures one bounded record read served by the
// replica tier (the steady-state fast path: admission check + replica
// store read), with the primary untouched.
func BenchmarkReplicaRead(b *testing.B) {
	rc := newReadCluster(b, 2)
	w := rc.dial(b, nil)
	for i := 0; i < 100; i++ {
		if err := w.Insert("posts", document.New(fmt.Sprintf("d%d", i), map[string]any{"n": int64(i)})); err != nil {
			b.Fatal(err)
		}
	}
	rc.waitCaughtUp(b)
	reader := rc.dial(b, &Options{DisableCache: true})
	opts := WithMaxStaleness(5 * time.Second)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := reader.ReadWith("posts", fmt.Sprintf("d%d", i%100), opts); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	st := reader.Stats()
	b.ReportMetric(float64(st.ReadsByTier.Replica)/float64(b.N), "replica-share")
}

// TestBoundedReadRefusesMemberCopyOverBound: a copy keeps the staleness it
// arrived with however it was cached. A record cached as a member of a
// query answered 800 ms behind the primary must not serve a read bounded
// at 500 ms, exactly like one read directly from that tier.
func TestBoundedReadRefusesMemberCopyOverBound(t *testing.T) {
	s := newStack(t, &server.Options{Representation: server.RepAlwaysObjects})
	surface := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Quaestor-Replica", "streaming")
		w.Header().Set("X-Quaestor-Staleness-Ms", "800")
		s.cdn.ServeHTTP(w, r)
	})
	c := s.dial(t, &Options{Transport: NewHandlerTransport(surface)})
	for id, tag := range map[string]string{"p1": "member", "p2": "direct"} {
		if err := s.srv.Insert("posts", document.New(id, map[string]any{"tags": []any{tag}})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Read("posts", "p2"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(query.New("posts", query.Contains("tags", "member")))
	if err != nil || len(res.Docs) != 1 || res.Representation != ttl.ObjectList {
		t.Fatalf("member query = %+v, %v", res, err)
	}

	hits := func() uint64 { return c.Stats().ReadsByTier.ClientCache }
	for _, id := range []string{"p2", "p1"} {
		before := hits()
		if _, err := c.ReadWith("posts", id, WithMaxStaleness(500*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if hits() != before {
			t.Errorf("%s: a copy 800 ms stale served a read bounded at 500 ms", id)
		}
	}
	before := hits()
	if _, err := c.ReadWith("posts", "p1", WithMaxStaleness(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if hits() != before+1 {
		t.Error("a read bounded at 5 s was not served from the 800 ms copy")
	}
}

// TestBoundedReadRefusesCopyOfUnknownStaleness: a replica that has not
// bounded its staleness (bootstrapping, no X-Quaestor-Staleness-Ms) hands
// out copies of unknown age. Unbounded reads may reuse such a copy; a
// read with any staleness bound must go to the network instead.
func TestBoundedReadRefusesCopyOfUnknownStaleness(t *testing.T) {
	s := newStack(t, nil)
	surface := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Quaestor-Replica", "bootstrapping")
		s.cdn.ServeHTTP(w, r)
	})
	c := s.dial(t, &Options{Transport: NewHandlerTransport(surface)})
	if err := s.srv.Insert("posts", document.New("p1", map[string]any{"v": int64(1)})); err != nil {
		t.Fatal(err)
	}
	hits := func() uint64 { return c.Stats().ReadsByTier.ClientCache }
	for i := 0; i < 2; i++ {
		if _, err := c.Read("posts", "p1"); err != nil {
			t.Fatal(err)
		}
	}
	if hits() != 1 {
		t.Fatalf("client-cache hits = %d after two unbounded reads, want 1 (the copy is cached)", hits())
	}
	if _, err := c.ReadWith("posts", "p1", WithMaxStaleness(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if hits() != 1 {
		t.Error("a copy of unknown staleness served a read bounded at 1 h")
	}
	if _, err := c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if hits() != 2 {
		t.Error("an unbounded read was not served from the cached copy")
	}
}

// TestDisableCacheKeepsNoPerPathState: with the browser cache off, reads
// and queries leave nothing behind keyed by resource path.
func TestDisableCacheKeepsNoPerPathState(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, &Options{DisableCache: true})
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("p%d", i)
		if err := s.srv.Insert("posts", document.New(id, map[string]any{"tags": []any{"x"}})); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read("posts", id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(query.New("posts", query.Contains("tags", "x"))); err != nil {
		t.Fatal(err)
	}
	if n := c.local.Len(); n != 0 {
		t.Errorf("browser cache holds %d entries with the cache disabled", n)
	}
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Map || f.Type().Key().Kind() != reflect.String {
			continue
		}
		for _, k := range f.MapKeys() {
			if strings.HasPrefix(k.String(), "/v1/") {
				t.Errorf("Client.%s holds %d entries keyed by path (%q) with the cache disabled", v.Type().Field(i).Name, f.Len(), k.String())
				break
			}
		}
	}
}
