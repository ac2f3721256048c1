package coordinator_test

// End-to-end failover: a live primary (the default 1-shard node and a
// 2-shard one) is killed mid-load with the coordinator supervising, and the whole cutover — per-shard
// election, idempotent promotion, shard-map rewrite under a bumped
// epoch, read-topology push — must complete automatically, with zero
// acked-write loss proven two-sided against shadow event logs and a
// live SDK client following the epoch bump to the new primary.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quaestor/internal/client"
	"quaestor/internal/cluster"
	"quaestor/internal/coordinator"
	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/replication"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/testutil"
)

// countingTransport counts the exchanges a client puts on the wire,
// failed ones included.
type countingTransport struct{ n atomic.Uint64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// shadowLog drains one shard store's change subscription into an
// ordered event log, so the test can reconstruct "the primary's
// acknowledged state as of sequence R" after the primary is gone.
type shadowLog struct {
	mu     sync.Mutex
	events []store.ChangeEvent
	done   chan struct{}
}

func shadowStore(db *store.Store) *shadowLog {
	ch, _ := db.SubscribeNamed("shadow")
	sl := &shadowLog{done: make(chan struct{})}
	go func() {
		defer close(sl.done)
		for ev := range ch {
			sl.mu.Lock()
			sl.events = append(sl.events, ev)
			sl.mu.Unlock()
		}
	}()
	return sl
}

// stateAsOf folds the acknowledged log up to sequence r into the
// expected table → id → document state.
func (sl *shadowLog) stateAsOf(r uint64) map[string]map[string]*document.Document {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	state := map[string]map[string]*document.Document{}
	for _, ev := range sl.events {
		if ev.Seq > r {
			break // events arrive in strict Seq order
		}
		if ev.After == nil {
			continue // sequenced DDL carries no document
		}
		tbl := state[ev.Table]
		if tbl == nil {
			tbl = map[string]*document.Document{}
			state[ev.Table] = tbl
		}
		if ev.Op == store.OpDelete {
			delete(tbl, ev.After.ID)
		} else {
			tbl[ev.After.ID] = ev.After
		}
	}
	return state
}

// ackedMatches reports whether some acknowledged write produced exactly
// this after-image.
func (sl *shadowLog) ackedMatches(table string, doc *document.Document) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	for _, ev := range sl.events {
		if ev.Op != store.OpDelete && ev.Table == table && ev.After != nil && ev.After.ID == doc.ID &&
			ev.After.Version == doc.Version && document.DeepEqual(ev.After.Body(), doc.Body()) {
			return true
		}
	}
	return false
}

func (sl *shadowLog) deletedAfter(table, id string, r uint64) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	for _, ev := range sl.events {
		if ev.Seq > r && ev.Table == table && ev.Op == store.OpDelete && ev.After.ID == id {
			return true
		}
	}
	return false
}

// candidateNode is one replica server: a router following every one of
// the primary's shard streams, fronted by a full server.
type candidateNode struct {
	router *cluster.Router
	srv    *server.Server
	ts     *httptest.Server
	repls  []*replication.Replica
}

func startCandidate(t *testing.T, primaryURL string, shards int, name string) *candidateNode {
	t.Helper()
	router := cluster.MustOpen(cluster.Options{Shards: shards})
	repls := make([]*replication.Replica, shards)
	for i := 0; i < shards; i++ {
		repls[i] = replication.New(replication.Options{
			Store:      router.Store(i),
			Primary:    primaryURL,
			Name:       fmt.Sprintf("%s/shard-%d", name, i),
			Shard:      i,
			MinBackoff: 5 * time.Millisecond,
			MaxBackoff: 50 * time.Millisecond,
			Logf:       t.Logf,
		})
		repls[i].Run()
	}
	srv := server.NewCluster(router, &server.Options{})
	srv.AttachReplicas(repls...)
	ts, stopTS := testutil.StartServer(srv.Handler())
	srv.SetSelfURL(ts.URL)
	t.Cleanup(func() {
		for _, r := range repls {
			r.Stop()
		}
		stopTS()
		srv.Close()
		router.Close()
	})
	return &candidateNode{router: router, srv: srv, ts: ts, repls: repls}
}

// TestCoordinatorAutomaticFailover kills a primary mid-load while a
// coordinator supervises two candidate replica nodes — once for the
// default 1-shard deployment, once for a 2-shard one. The cutover must
// happen with no operator involvement, every write the winners had
// applied must survive byte-equal, nothing unacknowledged may be
// invented, and a live SDK client pointed at the dead primary must
// follow the epoch bump and keep writing.
func TestCoordinatorAutomaticFailover(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testAutomaticFailover(t, shards) })
	}
}

func testAutomaticFailover(t *testing.T, shards int) {
	// Registered first so the leak check runs after every other cleanup:
	// the coordinator's supervisor/fence goroutines, the shadow drains,
	// and the replicas' pumps must all be gone once teardown completes.
	testutil.VerifyNoGoroutineLeaks(t)
	const writers = 4

	prouter := cluster.MustOpen(cluster.Options{Shards: shards})
	psrv := server.NewCluster(prouter, &server.Options{})
	pts, stopPTS := testutil.StartServer(psrv.Handler())
	var killOnce sync.Once
	killPrimary := func() { killOnce.Do(stopPTS) }
	var closeOnce sync.Once
	closePrimaryStores := func() {
		closeOnce.Do(func() {
			psrv.Close()
			prouter.Close()
		})
	}
	t.Cleanup(func() { killPrimary(); closePrimaryStores() })
	if err := prouter.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	shadows := make([]*shadowLog, shards)
	for i := 0; i < shards; i++ {
		shadows[i] = shadowStore(prouter.Store(i))
	}

	n1 := startCandidate(t, pts.URL, shards, "n1")
	n2 := startCandidate(t, pts.URL, shards, "n2")
	nodes := map[string]*candidateNode{n1.ts.URL: n1, n2.ts.URL: n2}
	psrv.SetReplicaEndpoints(pts.URL, []string{n1.ts.URL, n2.ts.URL})

	// A live SDK client dialed at the primary, replica set discovered
	// pre-failover; one write primes its shard map at the initial epoch.
	// (A 1-shard node stamps no epoch on its data plane, so there the
	// client first holds a map when it fails over.)
	var exchanges countingTransport
	cl, err := client.Dial(&client.Options{BaseURL: pts.URL, DiscoverReplicas: true, Transport: &exchanges})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert("docs", document.New("client-pre", map[string]any{"v": int64(1)})); err != nil {
		t.Fatal(err)
	}
	if m := cl.ShardMap(); shards > 1 && (m == nil || m.Epoch != 1) {
		t.Fatalf("client shard map before failover: %+v", m)
	}

	// The supervisor, attached to n1's server so /v1/failover/status and
	// the stats section are observable.
	co, err := coordinator.New(coordinator.Options{
		Primary:           pts.URL,
		Replicas:          []string{n1.ts.URL, n2.ts.URL},
		HeartbeatInterval: 20 * time.Millisecond,
		ProbeTimeout:      300 * time.Millisecond,
		FailureThreshold:  3,
		MaxBackoff:        200 * time.Millisecond,
		SettleWait:        400 * time.Millisecond,
		Logf:              t.Logf,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	co.Run()
	t.Cleanup(co.Stop)
	n1.srv.AttachCoordinator(co)

	// Hammer the primary until the kill: paced so the followers keep a
	// proven (>= 0) staleness bound while the load runs.
	stopWriters := make(chan struct{})
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopWriters:
					return
				default:
				}
				doc := document.New(fmt.Sprintf("w%d-%05d", w, i), map[string]any{"v": int64(i), "w": int64(w)})
				_ = prouter.Insert("docs", doc)
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// Ramp: a real spread of writes, and every shard follower on both
	// candidates eligible for election (proven staleness).
	deadline := time.Now().Add(30 * time.Second)
	for {
		total := uint64(0)
		for _, q := range prouter.LastSeqs() {
			total += q
		}
		eligibleAll := true
		for _, n := range nodes {
			for _, rep := range n.repls {
				if st := rep.Status(); st.StalenessMs < 0 || st.LastSeq == 0 {
					eligibleAll = false
				}
			}
		}
		if total >= 200 && eligibleAll {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("load never ramped to an electable state (total seq %d)", total)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the primary mid-load: HTTP first (streams and probes die while
	// writers still append), then the writers, then the stores — so the
	// shadow logs hold every acknowledged event.
	killPrimary()
	close(stopWriters)
	wwg.Wait()
	closePrimaryStores()
	for _, sl := range shadows {
		<-sl.done
	}

	// The coordinator must detect death and complete the cutover on its
	// own.
	deadline = time.Now().Add(30 * time.Second)
	for co.Status().Failovers == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic failover; coordinator status %+v", co.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := co.Status()
	report := st.LastFailover
	if report == nil || report.OldPrimary != pts.URL {
		t.Fatalf("failover report = %+v", report)
	}
	if len(report.Shards) != shards {
		t.Fatalf("report covers %d shards, want %d", len(report.Shards), shards)
	}
	if report.Epoch != 2 {
		t.Errorf("rewritten epoch = %d, want 2 (initial map was epoch 1)", report.Epoch)
	}
	if _, ok := nodes[report.NewPrimary]; !ok {
		t.Fatalf("new primary %q is not a candidate", report.NewPrimary)
	}

	// Each shard's winner is promoted, and its applied prefix R holds the
	// acknowledged state as of R — nothing lost, nothing invented.
	preWriteSeqs := make([]uint64, shards)
	for _, o := range report.Shards {
		n := nodes[o.Winner]
		if n == nil {
			t.Fatalf("shard %d winner %q is not a candidate", o.Shard, o.Winner)
		}
		if got := n.repls[o.Shard].Status().State; got != replication.StatePromoted {
			t.Fatalf("shard %d winner state = %q, want promoted", o.Shard, got)
		}
		db := n.router.Store(o.Shard)
		r := db.LastSeq()
		preWriteSeqs[o.Shard] = r
		if r == 0 {
			t.Fatalf("shard %d winner applied nothing", o.Shard)
		}
		want := shadows[o.Shard].stateAsOf(r)
		for tbl, docs := range want {
			for id, wdoc := range docs {
				got, err := db.Get(tbl, id)
				if err != nil {
					if !shadows[o.Shard].deletedAfter(tbl, id, r) {
						t.Errorf("shard %d: replicated write lost: %s/%s (v%d): %v", o.Shard, tbl, id, wdoc.Version, err)
					}
					continue
				}
				if got.Version < wdoc.Version && !shadows[o.Shard].deletedAfter(tbl, id, r) {
					t.Errorf("shard %d: %s/%s at v%d, behind acknowledged v%d at R=%d", o.Shard, tbl, id, got.Version, wdoc.Version, r)
				}
			}
		}
		for _, tbl := range db.Tables() {
			docs, err := db.ScanQuery(query.New(tbl, nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range docs {
				if !shadows[o.Shard].ackedMatches(tbl, got) {
					t.Errorf("shard %d: %s/%s v%d on winner was never acknowledged", o.Shard, tbl, got.ID, got.Version)
				}
			}
		}
	}

	// The SDK client, still pointed at the dead primary, must cut over on
	// its next write: transport-error failover, topology refresh from a
	// survivor, epoch bump, write landing on the new owner with no gap.
	if err := cl.Put("docs", document.New("client-post", map[string]any{"v": int64(2)})); err != nil {
		t.Fatalf("client write after failover: %v", err)
	}
	if m := cl.ShardMap(); m == nil || m.Epoch != report.Epoch {
		t.Errorf("client map epoch after failover = %+v, want %d", m, report.Epoch)
	}
	if got := cl.Stats().FailoverRetries; got == 0 {
		t.Error("client cut over without recording a failover retry")
	}
	postShard := n1.router.ShardFor("client-post")
	owner := nodes[report.Shards[postShard].Winner]
	if got := owner.router.Store(postShard).LastSeq(); got != preWriteSeqs[postShard]+1 {
		t.Errorf("post-failover seq on shard %d = %d, want %d (no gap)", postShard, got, preWriteSeqs[postShard]+1)
	}
	if doc, err := cl.Read("docs", "client-post"); err != nil || doc == nil {
		t.Errorf("client read after failover: %v", err)
	}
	// Every exchange the client made — the failed ones at the dead
	// primary and the topology fetches of the cutover included — is
	// counted once. A map refresh tries the dead default endpoint first.
	if err := cl.RefreshShardMap(); err != nil {
		t.Errorf("shard map refresh after failover: %v", err)
	}
	if got, want := cl.Stats().NetworkRequests, exchanges.n.Load(); got != want {
		t.Errorf("client counted %d network requests, the transport saw %d", got, want)
	}

	// Every survivor advertises the new read topology: the winner as
	// primary, and no promoted node still listed as a replica of itself.
	for url, n := range nodes {
		resp, err := http.Get(url + "/v1/cluster/replicas")
		if err != nil {
			t.Fatal(err)
		}
		var rs server.ReplicaSetResponse
		if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if rs.Primary != report.NewPrimary {
			t.Errorf("%s advertises primary %q, want %q", url, rs.Primary, report.NewPrimary)
		}
		for _, rep := range rs.Replicas {
			if rep == report.NewPrimary {
				t.Errorf("%s advertises the new primary %q as a replica", url, report.NewPrimary)
			}
		}
		if n.srv.InvaliDB().OrderViolations() != 0 {
			t.Errorf("%s: invalidation order violations after failover", url)
		}
	}

	// Supervision settles on the new primary: exactly one failover, no
	// epoch churn from re-elections.
	time.Sleep(300 * time.Millisecond)
	st = co.Status()
	if st.Failovers != 1 {
		t.Errorf("failovers = %d, want exactly 1 (no churn)", st.Failovers)
	}
	if st.State != coordinator.StateWatching || st.Primary != report.NewPrimary {
		t.Errorf("post-failover supervision: state=%q primary=%q", st.State, st.Primary)
	}

	// The coordinator's state is observable through its node's endpoints.
	resp, err := http.Get(n1.ts.URL + "/v1/failover/status")
	if err != nil {
		t.Fatal(err)
	}
	var hst coordinator.Status
	if err := json.NewDecoder(resp.Body).Decode(&hst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hst.Failovers != 1 || hst.LastFailover == nil {
		t.Errorf("/v1/failover/status = %+v", hst)
	}
}

// TestShardedPromotePerShardOutcomes exercises the per-shard promote
// path directly: ?shard=i flips exactly one follower with a reported
// outcome, re-delivery is idempotent (changed=false), a full promote
// reports which shards actually flipped, and the advertised read
// topology stops listing the promoted node as a replica of its dead
// primary.
func TestShardedPromotePerShardOutcomes(t *testing.T) {
	const shards = 2
	prouter := cluster.MustOpen(cluster.Options{Shards: shards})
	psrv := server.NewCluster(prouter, &server.Options{})
	pts, stopPTS := testutil.StartServer(psrv.Handler())
	t.Cleanup(func() {
		stopPTS()
		psrv.Close()
		prouter.Close()
	})
	if err := prouter.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := prouter.Insert("docs", document.New(fmt.Sprintf("d%03d", i), map[string]any{"v": int64(i)})); err != nil {
			t.Fatal(err)
		}
	}

	n := startCandidate(t, pts.URL, shards, "cand")
	// The stale advertisement a failover leaves behind: dead primary,
	// this node listed as a replica.
	n.srv.SetReplicaEndpoints(pts.URL, []string{n.ts.URL})

	deadline := time.Now().Add(15 * time.Second)
	for {
		ready := true
		for _, rep := range n.repls {
			if st := rep.Status(); st.StalenessMs < 0 {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never proved its staleness bound")
		}
		time.Sleep(5 * time.Millisecond)
	}

	promote := func(q string) server.PromoteResponse {
		t.Helper()
		resp, err := http.Post(n.ts.URL+"/v1/replication/promote"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promote%s: status %d", q, resp.StatusCode)
		}
		var pr server.PromoteResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	// Shard 0 alone flips; shard 1 keeps following.
	pr := promote("?shard=0")
	if !pr.Promoted || !pr.Changed || len(pr.Shards) != 1 {
		t.Fatalf("promote shard 0: %+v", pr)
	}
	if o := pr.Shards[0]; o.Shard != 0 || !o.Changed || o.State != replication.StatePromoted {
		t.Fatalf("shard 0 outcome: %+v", o)
	}
	if st := n.repls[1].Status().State; st == replication.StatePromoted {
		t.Fatal("shard 1 flipped by a shard-0 promote")
	}

	// Re-delivery is acknowledged but changes nothing.
	pr = promote("?shard=0")
	if !pr.Promoted || pr.Changed || len(pr.Shards) != 1 || pr.Shards[0].Changed {
		t.Fatalf("re-delivered promote shard 0: %+v", pr)
	}

	// Out-of-range shard is rejected, not silently all-flipped.
	resp, err := http.Post(n.ts.URL+"/v1/replication/promote?shard=9", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("promote?shard=9: status %d, want 400", resp.StatusCode)
	}

	// The full promote reports per-shard outcomes: 0 already flipped, 1
	// fresh.
	pr = promote("")
	if !pr.Promoted || !pr.Changed || len(pr.Shards) != shards {
		t.Fatalf("full promote: %+v", pr)
	}
	if pr.Shards[0].Changed || !pr.Shards[1].Changed {
		t.Fatalf("full promote outcomes: %+v", pr.Shards)
	}

	// Now a primary, the node advertises itself — not its dead primary,
	// and not itself as a replica.
	hresp, err := http.Get(n.ts.URL + "/v1/cluster/replicas")
	if err != nil {
		t.Fatal(err)
	}
	var rs server.ReplicaSetResponse
	if err := json.NewDecoder(hresp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if rs.Primary != n.ts.URL {
		t.Errorf("advertised primary = %q, want the promoted node %q", rs.Primary, n.ts.URL)
	}
	for _, rep := range rs.Replicas {
		if rep == n.ts.URL {
			t.Error("promoted node still advertises itself as a replica")
		}
	}
}
