package client

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/ebf"
	"quaestor/internal/query"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
)

// Safety tests for the whitelist carried across EBF renewals: a fake clock
// shared by a real httptest origin and the SDK sessions.

func (w *wire) setFront(front func(rw http.ResponseWriter, r *http.Request) bool) {
	w.mu.Lock()
	w.front = front
	w.mu.Unlock()
}

// exchanges returns how many /v1/db exchanges the wire has seen.
func (w *wire) exchanges() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.seen)
}

// withoutFlagLog makes the wire answer /v1/ebf the way a server that keeps
// no flag log does: the same filter, no epoch, no cursor, no recent.
func (w *wire) withoutFlagLog() {
	origin := w.srv.Handler()
	w.setFront(func(rw http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path != "/v1/ebf" {
			return false
		}
		rec := httptest.NewRecorder()
		origin.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.URL.RequestURI(), nil))
		var old struct {
			Filter      string `json:"filter"`
			GeneratedAt int64  `json:"generatedAt"`
			Entries     int    `json:"entries"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &old); err != nil {
			panic(err)
		}
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(old)
		return true
	})
}

// update writes at the origin, behind every session's back.
func (w *wire) update(t testing.TB, table, id string, n int) int64 {
	t.Helper()
	doc, err := w.srv.Update(table, id, store.UpdateSpec{Set: map[string]any{"n": n}})
	if err != nil {
		t.Fatal(err)
	}
	return doc.Version
}

// settle waits until the origin's EBF has seen every invalidation its
// writes so far cause: InvaliDB matches asynchronously, in real time, while
// the test's clock stands still. Every record write and every notification
// ends in one ReportWrite, which the filter counts as flagged or ignored.
func (w *wire) settle(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		// Quiesce(0) is the drained check alone: matching takes
		// microseconds, its polling sleep a millisecond.
		drained := w.srv.InvaliDB().Quiesce(0)
		_, notified := w.srv.InvaliDB().Stats()
		seen, want := w.srv.EBFStats(), w.srv.Stats().Writes+notified
		if drained && seen.Invalidations+seen.IgnoredWrites >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the EBF saw %d of %d writes and notifications", seen.Invalidations+seen.IgnoredWrites, want)
		}
	}
}

// deltaBoundRun drives 3 sessions over 6 records in 2 tables through a
// random schedule of reads (and, with queries, one query per table), writes
// and clock steps, and checks Δ-atomicity on every answer: a read at time t
// returns at least the version that was current at t − Δ. About a third of
// the writes are a session's own Update; no record read of that session
// may return less than its newest acknowledged write (read-your-writes). It
// returns the number of /v1/db exchanges the sessions needed.
func deltaBoundRun(t *testing.T, seed int64, queries, oldServer bool) int {
	const (
		delta    = time.Second
		steps    = 3000
		sessions = 3
	)
	// A 512-byte filter: 8 keys, and thousands of renewals per run.
	w := newWireWith(t, server.Options{TTL: &ttl.Config{MaxTTL: 40 * time.Second}, EBF: &ebf.Options{Bits: 1 << 12}})
	if oldServer {
		w.withoutFlagLog()
	}
	start := w.clk.Now()
	type written struct {
		at      time.Duration // since start
		version int64
	}
	type record struct{ table, id string }
	var records []record
	history := map[record][]written{}
	for _, table := range []string{"posts", "users"} {
		for i := 0; i < 3; i++ {
			r := record{table, "r" + strconv.Itoa(i)}
			w.insert(t, r.table, r.id, "x")
			records = append(records, r)
			history[r] = []written{{0, 1}}
		}
	}
	var clients []*Client
	own := make([]map[record]int64, sessions) // newest acked write per session
	for i := 0; i < sessions; i++ {
		clients = append(clients, w.dial(t))
		own[i] = map[record]int64{}
	}
	check := func(step int, what string, r record, got int64) {
		t.Helper()
		horizon, want := w.clk.Now().Sub(start)-delta, int64(0)
		for _, wr := range history[r] {
			if wr.at <= horizon {
				want = wr.version
			}
		}
		if got < want {
			t.Fatalf("seed %d step %d at %v: %s returned %s/%s v%d, but v%d was written ≥ Δ ago (writes %v)", seed, step, horizon+delta, what, r.table, r.id, got, want, history[r])
		}
	}

	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		r := records[rng.Intn(len(records))]
		switch p := rng.Intn(100); {
		case p < 10:
			var version int64
			if s := rng.Intn(3 * sessions); s < sessions {
				doc, err := clients[s].Update(r.table, r.id, store.UpdateSpec{Set: map[string]any{"n": step}})
				if err != nil {
					t.Fatal(err)
				}
				version = doc.Version
				own[s][r] = version
			} else {
				version = w.update(t, r.table, r.id, step)
			}
			history[r] = append(history[r], written{w.clk.Now().Sub(start), version})
			if queries {
				w.settle(t)
			}
		case p < 40:
			w.clk.Advance(time.Duration(rng.Intn(400)) * time.Millisecond)
		case queries && p < 70:
			res, err := clients[rng.Intn(sessions)].Query(query.New(r.table, query.Contains("tags", "x")))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Docs) != 3 {
				t.Fatalf("seed %d step %d: query returned %d documents, want 3", seed, step, len(res.Docs))
			}
			for _, d := range res.Docs {
				check(step, "a query", record{r.table, d.ID}, d.Version)
			}
		default:
			s := rng.Intn(sessions)
			doc, err := clients[s].Read(r.table, r.id)
			if err != nil {
				t.Fatal(err)
			}
			check(step, "a read", r, doc.Version)
			if doc.Version < own[s][r] {
				t.Fatalf("seed %d step %d: session %d read %s/%s v%d below its own acked write v%d", seed, step, s, r.table, r.id, doc.Version, own[s][r])
			}
		}
	}
	var carried, uncovered uint64
	for _, c := range clients {
		carried += c.Stats().WhitelistCarried
		uncovered += c.Stats().RenewalsUncovered
	}
	if oldServer == (carried > 0) || oldServer == (uncovered == 0) {
		t.Errorf("seed %d, old server %v: %d reads served on a carried entry, %d uncovered renewals", seed, oldServer, carried, uncovered)
	}
	return w.exchanges()
}

// TestDeltaBoundProperty is the referee of the carried whitelist: over 30
// random schedules, with records alone and with one query per table, every
// answer is within Δ and every record read at or above the reading
// session's own acknowledged writes. The first five schedules also run
// against an origin that does not say what it flagged since the last poll,
// so that every renewal clears (the paper's rule): within Δ as well, at
// more exchanges.
func TestDeltaBoundProperty(t *testing.T) {
	seeds, twins := int64(30), int64(5)
	if testing.Short() {
		seeds, twins = 4, 2
	}
	for _, mode := range []string{"records", "queries"} {
		t.Run(mode, func(t *testing.T) {
			carry, clearing := 0, 0
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					cost := deltaBoundRun(t, seed, mode == "queries", false)
					if seed <= twins {
						carry += cost
						clearing += deltaBoundRun(t, seed, mode == "queries", true)
					}
				})
			}
			t.Logf("%s, seeds 1–%d: %d exchanges with the whitelist carried, %d with clear-on-renewal", mode, twins, carry, clearing)
			if carry >= clearing {
				t.Errorf("carrying the whitelist cost %d exchanges, clearing it %d: want fewer", carry, clearing)
			}
		})
	}
}

// TestOwnWriteDoesNotOutliveDelta: session A writes p1 and reads it back,
// session B overwrites it, and ten Δ later A reads B's write — a session's
// own write is bounded by Δ like any other cached copy.
func TestOwnWriteDoesNotOutliveDelta(t *testing.T) {
	w := newWire(t)
	a, b := w.dial(t), w.dial(t)
	if err := a.Put("posts", document.New("p1", map[string]any{"by": "a"})); err != nil {
		t.Fatal(err)
	}
	doc, err := a.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if by, _ := doc.Get("by"); by != "a" || doc.Version != 1 {
		t.Fatalf("A read its own write as by=%v v%d, want by=a v1", by, doc.Version)
	}
	if err := b.Put("posts", document.New("p1", map[string]any{"by": "b"})); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(10 * time.Second)
	if doc, err = a.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if by, _ := doc.Get("by"); by != "b" || doc.Version != 2 {
		t.Errorf("10 Δ after B's write A read by=%v v%d, want by=b v2", by, doc.Version)
	}
}

// flaggedRecord sets up the case every carry test starts from: a session
// holds p1, the origin overwrites it (v2, flagged for the hour the first
// read was issued for), Δ passes, the session revalidates and holds v2.
func flaggedRecord(t *testing.T, w *wire) *Client {
	t.Helper()
	w.insert(t, "posts", "p1")
	c := w.dial(t)
	if _, err := c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	w.update(t, "posts", "p1", 1)
	w.clk.Advance(2 * time.Second)
	doc, err := c.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if ex := w.last(t); doc.Version != 2 || !ex.noCache {
		t.Fatalf("setup: read v%d by %+v, want v2 by a revalidation", doc.Version, ex)
	}
	return c
}

// readCost reads p1 after Δ has passed and returns the version read and
// the /v1/db exchanges it took.
func readCost(t *testing.T, w *wire, c *Client) (version int64, exchanges int) {
	t.Helper()
	w.clk.Advance(2 * time.Second)
	before := w.exchanges()
	doc, err := c.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	return doc.Version, w.exchanges() - before
}

// TestCarryOldServerClearsOnRenewal: against a /v1/ebf body without epoch,
// the SDK does what it did before it could carry anything — a key that
// stays flagged is revalidated once per renewal, conditionally.
func TestCarryOldServerClearsOnRenewal(t *testing.T) {
	w := newWire(t)
	w.withoutFlagLog()
	c := flaggedRecord(t, w)
	for round := 1; round <= 3; round++ {
		version, cost := readCost(t, w, c)
		if ex := w.last(t); version != 2 || cost != 1 || ex.ifNoneMatch != `"v2"` || !ex.noCache || ex.status != http.StatusNotModified {
			t.Errorf("round %d: read v%d in %d exchanges, last %+v; want one no-cache conditional GET answered 304", round, version, cost, ex)
		}
	}
	if st := c.Stats(); st.WhitelistCarried != 0 || st.RenewalsUncovered != st.EBFRefreshes-1 || st.NotModified != 3 {
		t.Errorf("stats: %d carried, %d of %d renewals uncovered, %d not modified", st.WhitelistCarried, st.RenewalsUncovered, st.EBFRefreshes-1, st.NotModified)
	}
}

// TestCarryUncoveredRenewalsClear: while the origin covers each renewal the
// revalidated record costs nothing; a ring overflow, a rebuilt origin
// (another epoch) and a position ahead of the origin's each leave the poll
// without "recent", and the next read revalidates again.
func TestCarryUncoveredRenewalsClear(t *testing.T) {
	w := newWire(t)
	c := flaggedRecord(t, w)
	if version, cost := readCost(t, w, c); version != 2 || cost != 0 {
		t.Fatalf("covered renewal: read v%d in %d exchanges, want the carried copy at none", version, cost)
	}

	// More flaggings between two polls than a partition remembers.
	for i := 0; i <= ebf.FlagLogSize; i++ {
		id := "bulk" + strconv.Itoa(i)
		w.insert(t, "posts", id)
		if _, err := w.srv.Read("posts", id); err != nil {
			t.Fatal(err)
		}
		w.update(t, "posts", id, 1)
	}
	if version, cost := readCost(t, w, c); version != 2 || cost != 1 || c.Stats().RenewalsUncovered != 1 {
		t.Errorf("after a ring overflow: read v%d in %d exchanges, %d uncovered renewals; want a revalidation", version, cost, c.Stats().RenewalsUncovered)
	}
	if version, cost := readCost(t, w, c); version != 2 || cost != 0 {
		t.Errorf("the renewal after the overflow: read v%d in %d exchanges, want the carried copy again", version, cost)
	}

	// The origin is rebuilt between two polls: same URL, same data, a new
	// filter instance that knows nothing of the old one's positions.
	rebuilt := server.New(w.db, &server.Options{Clock: w.clk.Now})
	t.Cleanup(rebuilt.Close)
	if _, err := rebuilt.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rebuilt.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"n": 2}}); err != nil {
		t.Fatal(err)
	}
	second := rebuilt.Handler()
	w.setFront(func(rw http.ResponseWriter, r *http.Request) bool {
		second.ServeHTTP(rw, r)
		return true
	})
	if version, cost := readCost(t, w, c); version != 3 || cost != 1 || c.Stats().RenewalsUncovered != 2 {
		t.Errorf("after an epoch change: read v%d in %d exchanges, %d uncovered renewals; want v3 by a revalidation", version, cost, c.Stats().RenewalsUncovered)
	}

	// What the wire says in each case.
	at := rebuilt.EBFSnapshot().At
	for name, tc := range map[string]struct {
		since ebf.Position
		want  bool
	}{
		"covered":          {at, true},
		"another epoch":    {ebf.Position{Epoch: at.Epoch + 1, Cursor: at.Cursor}, false},
		"ahead of cursor":  {ebf.Position{Epoch: at.Epoch, Cursor: at.Cursor + 1}, false},
		"before the start": {ebf.Position{Epoch: at.Epoch}, true},
	} {
		snap, err := c.fetchEBF(w.ts.URL, "", tc.since)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Covered != tc.want || (!tc.want && snap.Recent != nil) || snap.At != at {
			t.Errorf("%s: covered %v with %d fingerprints at %+v, want covered %v at %+v", name, snap.Covered, len(snap.Recent), snap.At, tc.want, at)
		}
	}
	var st server.StatsResponse
	resp, err := w.ts.Client().Get(w.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.EBF.UncoveredPolls != 3 { // the SDK's poll after the rebuild and the two above
		t.Errorf("/v1/stats ebf.uncoveredPolls = %d, want 3", st.EBF.UncoveredPolls)
	}
}

// TestCarryStraddlingRevalidationIsNotWhitelisted: a revalidation is
// answered (v2), then the record is written again (v3) and the filter
// renewed before the answer reaches the session. The new snapshot's
// "recent" named the key while it was not on the whitelist yet; recording
// the late answer now would carry v2 for as long as nothing else is
// written. It must not be recorded: the next read revalidates and gets v3.
func TestCarryStraddlingRevalidationIsNotWhitelisted(t *testing.T) {
	w := newWire(t)
	w.insert(t, "posts", "p1")
	c := w.dial(t)
	if _, err := c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	w.update(t, "posts", "p1", 1)
	w.clk.Advance(2 * time.Second)

	origin := w.srv.Handler()
	w.setFront(func(rw http.ResponseWriter, r *http.Request) bool {
		if r.Header.Get("Cache-Control") != "no-cache" {
			return false
		}
		w.setFront(nil)
		origin.ServeHTTP(rw, r) // answered with v2 …
		if _, err := w.srv.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"n": 2}}); err != nil {
			t.Error(err)
		}
		w.clk.Advance(2 * time.Second)
		if err := c.refreshEBF(); err != nil { // … and overtaken by a renewal
			t.Error(err)
		}
		return true
	})
	doc, err := c.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != 2 || c.Stats().EBFRefreshes != 3 {
		t.Fatalf("the straddling read returned v%d after %d refreshes, want v2 after 3", doc.Version, c.Stats().EBFRefreshes)
	}
	if state := c.checkEBF(server.RecordKey("posts", "p1")).state; state != ebf.Stale {
		t.Errorf("after the straddling revalidation the key is %v, want Stale", state)
	}
	// Within the same Δ and after covered renewals alike.
	for round := 0; round < 2; round++ {
		if doc, err = c.Read("posts", "p1"); err != nil {
			t.Fatal(err)
		}
		if doc.Version != 3 {
			t.Errorf("round %d: read v%d, want v3", round, doc.Version)
		}
		w.clk.Advance(2 * time.Second)
	}
}

// TestCarryReplicaAnswerIsNeverCarried: a revalidation answered by a node
// that annotates itself as a replica — it may lag behind the node the
// filter comes from, here by a whole version — whitelists the key for the
// current Δ as it always did, and not beyond: after the next renewal,
// covered and with nothing flagged, the key is revalidated again.
func TestCarryReplicaAnswerIsNeverCarried(t *testing.T) {
	w := newWire(t)
	w.insert(t, "posts", "p1")
	c := w.dial(t)
	if _, err := c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	w.update(t, "posts", "p1", 1)
	w.clk.Advance(2 * time.Second)

	// A replica that has not applied v2 yet validates the session's v1.
	w.setFront(func(rw http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path != "/v1/db/posts/p1" {
			return false
		}
		rw.Header().Set(server.HeaderReplica, "streaming")
		rw.Header().Set(server.HeaderStaleness, "1500")
		rw.Header().Set("ETag", `"v1"`)
		rw.Header().Set("Cache-Control", "public, max-age=60")
		rw.WriteHeader(http.StatusNotModified)
		return true
	})
	doc, err := c.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if ex := w.last(t); doc.Version != 1 || !ex.noCache || ex.status != http.StatusNotModified {
		t.Fatalf("replica-answered revalidation: v%d by %+v", doc.Version, ex)
	}
	if state := c.checkEBF(server.RecordKey("posts", "p1")).state; state != ebf.Revalidated {
		t.Errorf("within the Δ of the revalidation the key is %v, want Revalidated", state)
	}
	w.setFront(nil)
	version, cost := readCost(t, w, c)
	if st := c.Stats(); version != 2 || cost != 1 || st.RenewalsUncovered != 0 || st.WhitelistCarried != 0 {
		t.Errorf("after a covered renewal: read v%d in %d exchanges (%d uncovered renewals, %d carried); want v2 by a new revalidation", version, cost, st.RenewalsUncovered, st.WhitelistCarried)
	}
}

// TestQueryMemberKeepsLongerLivedCopy: a record held under a long TTL and
// returned, unchanged, by a query with a short one stays cached for the
// long one; a member with a newer version replaces the held copy.
func TestQueryMemberKeepsLongerLivedCopy(t *testing.T) {
	w := newWire(t)
	w.insert(t, "posts", "p1", "x")
	w.insert(t, "posts", "p2", "x")
	c := w.dial(t)
	for _, id := range []string{"p1", "p2"} {
		if _, err := c.Read("posts", id); err != nil { // never written: an hour's TTL
			t.Fatal(err)
		}
	}
	// p2 changes; the query that returns both is cacheable for seconds.
	w.update(t, "posts", "p2", 1)
	q := query.New("posts", query.Contains("tags", "x"))
	w.clk.Advance(2 * time.Second)
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Representation != ttl.ObjectList || len(res.Docs) != 2 {
		t.Fatalf("query: %v with %d docs", res.Representation, len(res.Docs))
	}
	short, ok := c.local.GetStale(QueryPath(q))
	if !ok || short.ExpiresAt.Sub(w.clk.Now()) > 10*time.Minute {
		t.Fatalf("the query's entry: %+v, want one far shorter than the records' hour", short)
	}
	w.clk.Advance(short.ExpiresAt.Sub(w.clk.Now()) + time.Second) // past the query's TTL

	before := w.exchanges()
	doc, err := c.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.exchanges() - before; got != 0 || doc.Version != 1 {
		t.Errorf("read of the unchanged member cost %d exchanges (v%d), want 0: the query cut its TTL", got, doc.Version)
	}
	if held, ok := c.local.GetStale(server.RecordPath("posts", "p2")); !ok || held.Value.(*document.Document).Version != 2 {
		t.Errorf("the newer member did not replace the held copy: %+v", held)
	}
}
