package replication_test

// Integration tests for log-shipping replication. They live in an
// external test package so they can drive the full loop — store,
// server HTTP endpoints, and the replica — together, the way a real
// deployment wires them.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/replication"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/testutil"
	"quaestor/internal/wal"
)

// primary bundles a store with the HTTP surface replicas talk to.
type primary struct {
	db   *store.Store
	srv  *server.Server
	ts   *httptest.Server
	stop func() // ends ts's streams, then closes it
}

// startPrimary opens a store (durable when dir != "") behind a full
// server handler. ringSize tunes the fan-out ring so tests can force
// truncation.
func startPrimary(t *testing.T, dir string, ringSize int) *primary {
	t.Helper()
	opts := &store.Options{ChangeBuffer: ringSize}
	if dir != "" {
		opts.DataDir = dir
		opts.Durability = store.Durability{Fsync: wal.FsyncNever}
	}
	db, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, &server.Options{})
	ts, stop := testutil.StartServer(srv.Handler())
	p := &primary{db: db, srv: srv, ts: ts, stop: stop}
	t.Cleanup(p.close)
	return p
}

func (p *primary) close() {
	if p.ts != nil {
		// Close waits for handlers, and a replica that reconnects while
		// the server goes down gets a new long-lived stream: stop ends
		// them through their base context first.
		p.stop()
		p.ts = nil
	}
	if p.srv != nil {
		p.srv.Close()
		p.srv = nil
	}
	if p.db != nil {
		p.db.Close()
		p.db = nil
	}
}

// startReplica opens a replica store (durable when dir != "") following
// the primary.
func startReplica(t *testing.T, primaryURL, dir string) *replication.Replica {
	t.Helper()
	opts := &store.Options{}
	if dir != "" {
		opts.DataDir = dir
		opts.Durability = store.Durability{Fsync: wal.FsyncNever}
	}
	db, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	repl := replication.New(replication.Options{
		Store:      db,
		Primary:    primaryURL,
		Name:       "r1",
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		Logf:       t.Logf,
	})
	repl.Run()
	t.Cleanup(func() {
		repl.Stop()
		db.Close()
	})
	return repl
}

// dumpState renders a store's full logical state — tables, secondary
// index definitions, and every document with its version — as one
// canonical string, so two stores can be compared byte-for-byte.
func dumpState(t *testing.T, s *store.Store) string {
	t.Helper()
	var sb strings.Builder
	for _, tbl := range s.Tables() {
		paths, err := s.Indexes(tbl)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "table %s indexes=%v\n", tbl, paths)
		docs, err := s.ScanQuery(query.New(tbl, nil))
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
		for _, d := range docs {
			js, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "  %s\n", js)
		}
	}
	return sb.String()
}

// waitConverged polls until the replica has applied everything the
// primary has acknowledged.
func waitConverged(t *testing.T, repl *replication.Replica, p *store.Store, timeout time.Duration) {
	t.Helper()
	want := p.LastSeq()
	deadline := time.Now().Add(timeout)
	// A snapshot import moves LastSeq to the floor before it returns and
	// the replica counts the bootstrap; the state leaves bootstrapping
	// only after that, so waiting it out keeps Status consistent.
	for repl.Store().LastSeq() < want || repl.Status().State == replication.StateBootstrapping {
		if time.Now().After(deadline) {
			st := repl.Status()
			t.Fatalf("replica stalled: applied %d, primary at %d (state=%s, status=%+v)",
				repl.Store().LastSeq(), want, st.State, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertStateEqual requires the replica's state to be byte-equal to the
// primary's: documents, versions, index definitions, and LastSeq.
func assertStateEqual(t *testing.T, p, r *store.Store) {
	t.Helper()
	pd, rd := dumpState(t, p), dumpState(t, r)
	if pd != rd {
		t.Errorf("replica state differs from primary:\n--- primary ---\n%s--- replica ---\n%s", pd, rd)
	}
	if pl, rl := p.LastSeq(), r.LastSeq(); pl != rl {
		t.Errorf("LastSeq: primary %d, replica %d", pl, rl)
	}
}

// hammer runs concurrent writers doing randomized inserts, upserts,
// partial updates and deletes on a shared key space. It returns a wait
// function.
func hammer(p *store.Store, writers, opsEach, keys int) func() {
	return hammerPaced(p, writers, opsEach, keys, 0)
}

// hammerPaced is hammer with an occasional per-writer pause, stretching
// the load window so mid-load events (disconnects, failover) land while
// writes are genuinely in flight.
func hammerPaced(p *store.Store, writers, opsEach, keys int, pace time.Duration) func() {
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for op := 0; op < opsEach; op++ {
				if pace > 0 && op%8 == 0 {
					time.Sleep(time.Duration(r.Int63n(int64(pace))))
				}
				id := fmt.Sprintf("k%03d", r.Intn(keys))
				switch r.Intn(4) {
				case 0:
					_ = p.Insert("docs", document.New(id, map[string]any{"v": int64(r.Intn(10)), "w": seed}))
				case 1:
					_ = p.Put("docs", document.New(id, map[string]any{"v": int64(r.Intn(10)), "w": seed}))
				case 2:
					_, _ = p.Update("docs", id, store.UpdateSpec{Inc: map[string]float64{"n": 1}})
				case 3:
					_ = p.Delete("docs", id)
				}
			}
		}(int64(w + 1))
	}
	return wg.Wait
}

// TestPropertyReplicaConvergesUnderConcurrentWriters is the replication
// core property: with 64 concurrent writers racing on the primary and a
// replica attached mid-stream, the replica converges — after quiesce —
// to a state byte-equal to the primary (documents, versions, index
// definitions, LastSeq), for both in-memory and durable pairs. A
// mid-load connection drop exercises reconnect (re-delivered ring
// batches must be no-ops).
func TestPropertyReplicaConvergesUnderConcurrentWriters(t *testing.T) {
	const writers = 64
	opsEach := 40
	if testing.Short() {
		opsEach = 15
	}
	for _, mode := range []string{"memory", "durable"} {
		t.Run(mode, func(t *testing.T) {
			// Attach/detach must not strand sync loops or pump goroutines
			// past the subtest's own replica/primary teardown.
			testutil.VerifyNoGoroutineLeaks(t)
			dir, rdir := "", ""
			if mode == "durable" {
				dir, rdir = t.TempDir(), t.TempDir()
			}
			p := startPrimary(t, dir, 1<<15)
			if err := p.db.CreateTable("docs"); err != nil {
				t.Fatal(err)
			}
			if err := p.db.CreateIndex("docs", "v"); err != nil {
				t.Fatal(err)
			}

			wait := hammer(p.db, writers, opsEach, 48)
			// Attach mid-stream: let a chunk of the load land first.
			for p.db.LastSeq() < uint64(writers*opsEach/4) {
				time.Sleep(time.Millisecond)
			}
			repl := startReplica(t, p.ts.URL, rdir)
			// One mid-load disconnect: the loop must reconnect from its
			// position and re-application of overlapping batches must be
			// a no-op.
			for repl.Store().LastSeq() == 0 {
				time.Sleep(time.Millisecond)
			}
			repl.DropConnection()
			wait()

			waitConverged(t, repl, p.db, 15*time.Second)
			assertStateEqual(t, p.db, repl.Store())

			// The replica maintains its own secondary indexes: its planner
			// must make the same choice as the primary's (identical state
			// means identical index statistics) and return the same rows.
			q := query.New("docs", query.Eq("v", int64(3)))
			rdocs, rplan, err := repl.Store().QueryPlanned(q)
			if err != nil {
				t.Fatal(err)
			}
			pdocs, pplan, err := p.db.QueryPlanned(q)
			if err != nil {
				t.Fatal(err)
			}
			if rplan.Kind != pplan.Kind {
				t.Errorf("plan divergence: replica %v, primary %v", rplan.Kind, pplan.Kind)
			}
			if len(rdocs) != len(pdocs) {
				t.Errorf("indexed query: replica %d docs, primary %d", len(rdocs), len(pdocs))
			}

			// The primary reports the replica in its per-subscriber
			// pipeline stats once the live stream is attached.
			statsDeadline := time.Now().Add(5 * time.Second)
			for {
				found := false
				for _, sub := range p.db.PipelineStats().Stream.Subscribers {
					if sub.Name == "replica:r1" {
						found = true
					}
				}
				if found {
					break
				}
				if time.Now().After(statsDeadline) {
					t.Error("primary pipeline stats never listed subscriber replica:r1")
					break
				}
				time.Sleep(2 * time.Millisecond)
			}

			// Read-only until promoted.
			if err := repl.Store().Insert("docs", document.New("direct", nil)); err != store.ErrReadOnly {
				t.Errorf("direct write on replica: err = %v, want ErrReadOnly", err)
			}
		})
	}
}

// TestReplicaIdempotentReapply proves re-delivery is a no-op at the
// apply layer: applying the same replicated batch twice leaves the
// state, the sequence counter, and the replica's own change stream
// untouched the second time.
func TestReplicaIdempotentReapply(t *testing.T) {
	p := store.MustOpen(nil)
	defer p.Close()
	if err := p.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := p.Put("docs", document.New(fmt.Sprintf("k%d", i%7), map[string]any{"i": int64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := p.SubscribeFrom("capture", 0)
	if err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	for len(recs) < 20 {
		recs = append(recs, replication.EventsToRecords(<-sub.Events())...)
	}
	sub.Cancel()

	r := store.MustOpen(nil)
	defer r.Close()
	r.SetReadOnly(true)
	events, cancel := r.SubscribeNamed("check")
	defer cancel()

	n, err := r.ApplyReplicated(recs)
	if err != nil || n != 20 {
		t.Fatalf("first apply: n=%d err=%v, want 20 applied", n, err)
	}
	first := dumpState(t, r)
	n, err = r.ApplyReplicated(recs) // full re-delivery
	if err != nil || n != 0 {
		t.Fatalf("re-apply: n=%d err=%v, want 0 applied", n, err)
	}
	if again := dumpState(t, r); again != first {
		t.Errorf("re-apply changed state:\n%s\nvs\n%s", first, again)
	}
	if r.LastSeq() != 20 {
		t.Errorf("LastSeq = %d after re-apply, want 20", r.LastSeq())
	}
	// Exactly 20 events on the replica's own stream — the duplicate
	// batch must not republish.
	seen := 0
	timeout := time.After(5 * time.Second)
	for seen < 20 {
		select {
		case ev := <-events:
			seen++
			if ev.Seq != uint64(seen) {
				t.Fatalf("replica stream seq %d at position %d", ev.Seq, seen)
			}
		case <-timeout:
			t.Fatalf("replica stream delivered %d events, want 20", seen)
		}
	}
	select {
	case ev := <-events:
		t.Fatalf("duplicate event republished: seq %d", ev.Seq)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestReplicaCrashRestartResumes is the crash-and-reconnect variant: a
// durable replica is stopped and its store closed mid-load (a crash),
// then reopened from its own WAL and re-attached. Recovery restores the
// replication position; the overlap the ring re-delivers must apply as
// a no-op and the pair must still converge byte-equal.
func TestReplicaCrashRestartResumes(t *testing.T) {
	// The crashed replica's first incarnation must fully wind down — a
	// leaked sync loop from the pre-crash Replica would show up here.
	testutil.VerifyNoGoroutineLeaks(t)
	const writers = 32
	opsEach := 30
	if testing.Short() {
		opsEach = 12
	}
	p := startPrimary(t, t.TempDir(), 1<<15)
	if err := p.db.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	if err := p.db.CreateIndex("docs", "v"); err != nil {
		t.Fatal(err)
	}
	rdir := t.TempDir()

	wait := hammer(p.db, writers, opsEach, 32)
	repl := startReplica(t, p.ts.URL, rdir)

	// Crash the replica once it has applied something.
	deadline := time.Now().Add(10 * time.Second)
	for repl.Store().LastSeq() < uint64(writers*opsEach/8) {
		if time.Now().After(deadline) {
			t.Fatalf("replica never progressed (applied %d)", repl.Store().LastSeq())
		}
		time.Sleep(time.Millisecond)
	}
	repl.Stop()
	crashedAt := repl.Store().LastSeq()
	repl.Store().Close()

	// Reopen from the replica's own WAL: recovery must land at (or, with
	// fsync=never, at most at) the crash position, and resuming from the
	// recovered floor must be seamless.
	db2, err := store.Open(&store.Options{DataDir: rdir, Durability: store.Durability{Fsync: wal.FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.LastSeq(); got > crashedAt {
		t.Fatalf("recovered LastSeq %d beyond crash position %d", got, crashedAt)
	}
	repl2 := replication.New(replication.Options{
		Store:      db2,
		Primary:    p.ts.URL,
		Name:       "r1",
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		Logf:       t.Logf,
	})
	repl2.Run()
	t.Cleanup(func() {
		repl2.Stop()
		db2.Close()
	})

	wait()
	waitConverged(t, repl2, p.db, 15*time.Second)
	assertStateEqual(t, p.db, db2)
	if st := repl2.Status(); st.Bootstraps != 0 {
		t.Errorf("restarted replica re-bootstrapped (%d times); should resume from its WAL position", st.Bootstraps)
	}
}

// TestReplicaRejoinPastRingRebootstraps forces a rejoining replica's
// position out of the fan-out ring: the replica goes offline, the
// primary takes far more writes than the ring retains, and on rejoin the
// stream refuses with 410 (commitlog.ErrSeqTruncated), so the replica
// must re-bootstrap from a snapshot exactly once before streaming. The
// catch-up leaves the primary's durable state alone: its WAL keeps the
// same segment files.
func TestReplicaRejoinPastRingRebootstraps(t *testing.T) {
	testutil.VerifyNoGoroutineLeaks(t)
	p := startPrimary(t, t.TempDir(), 64) // tiny ring
	if err := p.db.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := p.db.Put("docs", document.New(fmt.Sprintf("k%04d", i), map[string]any{"i": int64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	rdir := t.TempDir()
	repl := startReplica(t, p.ts.URL, rdir)
	waitConverged(t, repl, p.db, 15*time.Second)
	repl.Stop() // replica goes offline with state at seq 100

	// The primary moves on far past the ring's retention.
	for i := 0; i < 1000; i++ {
		if err := p.db.Put("docs", document.New(fmt.Sprintf("k%04d", i%300), map[string]any{"i": int64(i), "r": true})); err != nil {
			t.Fatal(err)
		}
	}
	segments := func() int {
		st, ok := p.db.DurabilityStats()
		if !ok {
			t.Fatal("primary is not durable")
		}
		return st.WAL.Segments
	}
	before := segments()

	// Rejoin: same store, new replication loop.
	repl2 := replication.New(replication.Options{
		Store:      repl.Store(),
		Primary:    p.ts.URL,
		Name:       "r1",
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		Logf:       t.Logf,
	})
	repl2.Run()
	t.Cleanup(repl2.Stop)
	waitConverged(t, repl2, p.db, 15*time.Second)
	assertStateEqual(t, p.db, repl2.Store())
	if st := repl2.Status(); st.Bootstraps != 1 {
		t.Errorf("status = %+v: want exactly one re-bootstrap on rejoin", st)
	}
	if after := segments(); after != before {
		t.Errorf("primary WAL segments %d -> %d across the rejoin: a catch-up must not rotate the primary's log", before, after)
	}
}

// TestReplicaRebootstrapsPastSnapshotTruncation: the primary snapshotted
// (truncating its WAL) and then took more writes than the ring retains,
// so a late replica can only start from a snapshot bootstrap. The
// in-memory-primary variant has no WAL at all and bootstraps the same
// way.
func TestReplicaRebootstrapsPastSnapshotTruncation(t *testing.T) {
	t.Run("durable-primary", func(t *testing.T) {
		p := startPrimary(t, t.TempDir(), 64)
		if err := p.db.CreateTable("docs"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if err := p.db.Put("docs", document.New(fmt.Sprintf("k%04d", i), map[string]any{"i": int64(i)})); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.db.Snapshot(); err != nil { // truncates the WAL
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ { // more than the ring retains
			if err := p.db.Put("docs", document.New(fmt.Sprintf("x%04d", i), map[string]any{"i": int64(i)})); err != nil {
				t.Fatal(err)
			}
		}
		repl := startReplica(t, p.ts.URL, t.TempDir())
		waitConverged(t, repl, p.db, 15*time.Second)
		assertStateEqual(t, p.db, repl.Store())
		if st := repl.Status(); st.Bootstraps == 0 {
			t.Errorf("status = %+v: expected a snapshot bootstrap", st)
		}
	})
	t.Run("memory-primary", func(t *testing.T) {
		p := startPrimary(t, "", 64)
		if err := p.db.CreateTable("docs"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if err := p.db.Put("docs", document.New(fmt.Sprintf("k%04d", i), map[string]any{"i": int64(i)})); err != nil {
				t.Fatal(err)
			}
		}
		repl := startReplica(t, p.ts.URL, "")
		waitConverged(t, repl, p.db, 15*time.Second)
		assertStateEqual(t, p.db, repl.Store())
		if st := repl.Status(); st.Bootstraps == 0 {
			t.Errorf("status = %+v: expected a snapshot bootstrap", st)
		}
	})
}

// TestChainedSubscriberRefusedAcrossBootstrapGap: after a snapshot
// import collapses a sequence range, a subscriber (e.g. a chained
// replica) attaching from inside that range must get ErrSeqTruncated —
// not a silent fast-forward over history this node never saw event-by-
// event.
func TestChainedSubscriberRefusedAcrossBootstrapGap(t *testing.T) {
	p := startPrimary(t, "", 1<<12)
	if err := p.db.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := p.db.Put("docs", document.New(fmt.Sprintf("k%03d", i), map[string]any{"i": int64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	repl := startReplica(t, p.ts.URL, "")
	waitConverged(t, repl, p.db, 10*time.Second)

	// The replica bootstrapped from a snapshot with floor ≈300: it never
	// saw events 1..floor individually, so a chained consumer at seq 50
	// must be refused and re-bootstrap instead.
	if _, err := repl.Store().SubscribeFrom("chained", 50); err == nil {
		t.Fatal("SubscribeFrom inside the snapshot-collapsed range succeeded; chained replica would silently skip history")
	}
	// At or past the floor the live feed works.
	sub, err := repl.Store().SubscribeFrom("chained", repl.Store().LastSeq())
	if err != nil {
		t.Fatalf("SubscribeFrom at the replica's position: %v", err)
	}
	sub.Cancel()
}

// TestReplicaHTTPSurface drives the replica through its own server
// handler: reads succeed with staleness headers, writes are refused with
// 503 until promotion, and /v1/replication/status reports both roles.
func TestReplicaHTTPSurface(t *testing.T) {
	p := startPrimary(t, "", 1<<12)
	if err := p.db.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	if err := p.db.Put("docs", document.New("a", map[string]any{"v": int64(1)})); err != nil {
		t.Fatal(err)
	}

	// Primary role status.
	var role server.ReplicationRole
	getJSON(t, p.ts.URL+"/v1/replication/status", &role)
	if role.Role != "primary" || role.LastSeq != 1 {
		t.Errorf("primary status = %+v", role)
	}

	repl := startReplica(t, p.ts.URL, "")
	rsrv := server.New(repl.Store(), &server.Options{})
	rsrv.AttachReplicas(repl)
	rts, stopRTS := testutil.StartServer(rsrv.Handler())
	t.Cleanup(func() {
		stopRTS()
		rsrv.Close()
	})
	waitConverged(t, repl, p.db, 10*time.Second)

	// Replica read: 200 plus replica headers.
	resp, err := http.Get(rts.URL + "/v1/db/docs/a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("replica read status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Quaestor-Replica") == "" {
		t.Error("replica read missing X-Quaestor-Replica header")
	}

	// Replica write: refused while following.
	req, _ := http.NewRequest(http.MethodPut, rts.URL+"/v1/db/docs/b", strings.NewReader(`{"v":2}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("replica write status %d, want 503", resp.StatusCode)
	}

	// Replica role status.
	var sts []replication.Status
	getJSON(t, rts.URL+"/v1/replication/status", &sts)
	if len(sts) != 1 {
		t.Fatalf("replica status = %+v, want one status per shard", sts)
	}
	st := sts[0]
	if st.State == "" || !st.ReadOnly {
		t.Errorf("replica status = %+v", st)
	}

	// Promote over HTTP; writes then succeed.
	presp, err := http.Post(rts.URL+"/v1/replication/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("promote status %d", presp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, rts.URL+"/v1/db/docs/b", strings.NewReader(`{"v":2}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-promotion write status %d, want 200", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
