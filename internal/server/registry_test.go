package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quaestor/internal/invalidb"
	"quaestor/internal/query"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
)

// These tests pin the lifecycle of a cached query: the active list is the
// one registry, its capacity (-max-queries) the one bound, and an evicted
// query leaves InvaliDB and the estimator with it.

// testClock is a settable clock safe for concurrent use.
type testClock struct{ nanos atomic.Int64 }

func newTestClock() *testClock {
	c := &testClock{}
	c.nanos.Store(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *testClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *testClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

// registryServer caps the active list at capacity and issues every TTL
// as exactly one hour of the returned clock.
func registryServer(t *testing.T, capacity int) (*Server, *testClock) {
	clock := newTestClock()
	srv := newTestServer(t, 1, &Options{
		InvaliDB: &invalidb.Config{MaxQueries: capacity},
		TTL:      &ttl.Config{MinTTL: time.Hour, MaxTTL: time.Hour},
		Clock:    clock.Now,
	})
	return srv, clock
}

func tagQuery(tag string) *query.Query {
	return query.New("posts", query.Contains("tags", tag))
}

// settle waits until every write so far has been matched and every
// resulting notification consumed by the server's notification loop.
func settle(t *testing.T, srv *Server) {
	t.Helper()
	if !srv.InvaliDB().Quiesce(10 * time.Second) {
		t.Fatal("InvaliDB did not drain")
	}
	waitFor(t, 10*time.Second, func() bool {
		_, emitted := srv.InvaliDB().Stats()
		return srv.Stats().Invalidations == emitted
	})
}

// checkRegistryBound asserts the invariant every test here shares: the
// active list and InvaliDB hold the same number of queries, within capacity.
func checkRegistryBound(t *testing.T, srv *Server, capacity int) {
	t.Helper()
	if n, m := srv.ActiveList().Len(), srv.InvaliDB().ActiveQueries(); n != m || n > capacity {
		t.Fatalf("active list holds %d queries, InvaliDB %d, capacity %d", n, m, capacity)
	}
}

func TestEvictionFreesCapacity(t *testing.T) {
	srv, _ := registryServer(t, 2)
	var mu sync.Mutex
	purged := map[string]int{}
	srv.AddPurger(PurgerFunc(func(path string) {
		mu.Lock()
		purged[path]++
		mu.Unlock()
	}))
	purgesOf := func(path string) int {
		mu.Lock()
		defer mu.Unlock()
		return purged[path]
	}
	insertPost(t, srv, "p1", "keep")
	insertPost(t, srv, "p2", "churn")
	insertPost(t, srv, "p3", "new")
	keep, churn, newcomer := tagQuery("keep"), tagQuery("churn"), tagQuery("new")

	for i := 0; i < 3; i++ {
		if res, err := srv.Query(keep); err != nil || !res.Cacheable {
			t.Fatalf("keep: %+v %v", res, err)
		}
	}
	if res, err := srv.query(churn, "/churn"); err != nil || !res.Cacheable {
		t.Fatalf("churn: %+v %v", res, err)
	}
	// Two invalidations against one read: churn now scores below a newcomer.
	insertPost(t, srv, "p4", "churn")
	insertPost(t, srv, "p5", "churn")
	settle(t, srv)
	if e, _ := srv.ActiveList().Get(churn.Key()); e.Invalidations != 2 {
		t.Fatalf("churn entry = %+v, want 2 invalidations", e)
	}
	if _, ok := srv.Estimator().EstimateSnapshot(churn.Key()); !ok {
		t.Fatal("invalidations did not feed churn's EWMA")
	}
	purgesBefore := purgesOf("/churn")

	res, err := srv.Query(newcomer)
	if err != nil || !res.Cacheable {
		t.Fatalf("third query should displace the low-value one: %+v %v", res, err)
	}
	checkRegistryBound(t, srv, 2)
	if _, ok := srv.ActiveList().Get(churn.Key()); ok {
		t.Error("low-value query still resident")
	}
	if _, ok := srv.ActiveList().Get(keep.Key()); !ok {
		t.Error("valuable query was evicted")
	}
	if _, ok := srv.Estimator().EstimateSnapshot(churn.Key()); ok {
		t.Error("evicted query's EWMA not forgotten")
	}
	if st := srv.Stats(); st.QueryEvictions != 1 || st.ActiveQueries != 2 || st.RejectedQueries != 0 {
		t.Errorf("stats = %+v", st)
	}
	// churn was evicted under a live TTL: its cached copies are invalidated
	// one last time, since nothing will match writes against it any more.
	if got := purgesOf("/churn"); got != purgesBefore+1 {
		t.Errorf("eviction purged /churn %d times, want 1", got-purgesBefore)
	}
	if !srv.coh.Contains(churn.Key()) {
		t.Error("evicted query not flagged stale in the EBF")
	}

	_, before := srv.InvaliDB().Stats()
	insertPost(t, srv, "p6", "churn")
	settle(t, srv)
	if _, after := srv.InvaliDB().Stats(); after != before {
		t.Errorf("a write matching only the evicted query produced %d notifications", after-before)
	}
}

// TestQueryChurnStaysFlat drives 5× capacity distinct query URLs (25× in
// the long variant) through the HTTP handler — admitted, evicted and
// rejected ones — and checks after every request that no per-query
// structure outgrows the capacity.
func TestQueryChurnStaysFlat(t *testing.T) {
	const capacity = 8
	rounds := 5
	if !testing.Short() {
		rounds = 25
	}
	srv, clock := registryServer(t, capacity)
	h := srv.Handler()
	for i := 0; i < capacity; i++ {
		insertPost(t, srv, fmt.Sprintf("seed%d", i), fmt.Sprintf("t%d", i))
	}

	var keys []string
	cacheable, rejected := 0, 0
	for r := 0; r < rounds; r++ {
		// Odd rounds meet a list full of live queries scoring no lower than
		// a newcomer and are rejected; before even rounds every TTL lapses.
		if r%2 == 0 {
			clock.Advance(2 * time.Hour)
		}
		for i := 0; i < capacity; i++ {
			n := r*capacity + i
			tag := fmt.Sprintf("t%d", n)
			keys = append(keys, tagQuery(tag).Key())
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				"/v1/db/posts?q="+url.QueryEscape(fmt.Sprintf(`{"tags":{"$contains":%q}}`, tag)), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("query %d: status %d: %s", n, rec.Code, rec.Body)
			}
			if rec.Header().Get("Cache-Control") == "no-store" {
				rejected++
			} else {
				cacheable++
				// An invalidation gives the admitted query an EWMA entry.
				insertPost(t, srv, fmt.Sprintf("p%d", n), tag)
				settle(t, srv)
			}

			checkRegistryBound(t, srv, capacity)
			estimates := 0
			for _, k := range keys {
				if _, ok := srv.Estimator().EstimateSnapshot(k); ok {
					estimates++
				}
			}
			if estimates > capacity {
				t.Fatalf("after %d queries the estimator holds %d per-query entries, capacity %d", n+1, estimates, capacity)
			}
		}
	}
	if want := (rounds + 1) / 2 * capacity; cacheable != want || rejected != rounds*capacity-want {
		t.Errorf("cacheable = %d, rejected = %d, want %d and %d", cacheable, rejected, want, rounds*capacity-want)
	}
	if st := srv.Stats(); int(st.RejectedQueries) != rejected || int(st.QueryEvictions) != cacheable-capacity {
		t.Errorf("stats = %+v, want %d rejections and %d evictions", st, rejected, cacheable-capacity)
	}
}

// TestRegistryStress races queries over many more keys than the registry
// holds against tag-flipping writes while the clock runs (a query not
// re-read within 100 others lapses), so admissions, evictions and
// re-admissions of the same key interleave. At quiescence
// the registry and InvaliDB must agree key by key: every resident query is
// matched (a result-changing write is notified), no other query is.
func TestRegistryStress(t *testing.T) {
	const capacity, tags, posts = 8, 64, 32
	srv, clock := registryServer(t, capacity)
	for i := 0; i < posts; i++ {
		insertPost(t, srv, fmt.Sprintf("p%d", i), fmt.Sprintf("t%d", i))
	}
	tagOf := func(n int) string { return fmt.Sprintf("t%d", n) }

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				// Skewed: a few hot keys stay resident, the tail churns.
				n := rnd.Intn(tags)
				if rnd.Intn(2) == 0 {
					n = rnd.Intn(4)
				}
				if _, err := srv.Query(tagQuery(tagOf(n))); err != nil {
					t.Error(err)
					return
				}
				clock.Advance(time.Hour / 100)
			}
		}(int64(g))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("p%d", rnd.Intn(posts))
				spec := store.UpdateSpec{Set: map[string]any{"tags": []any{tagOf(rnd.Intn(tags))}}}
				if _, err := srv.Update("posts", id, spec); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	settle(t, srv)
	checkRegistryBound(t, srv, capacity)
	if st := srv.Stats(); st.QueryEvictions == 0 || st.ActiveQueries != srv.ActiveList().Len() {
		t.Errorf("stats = %+v: the run was meant to evict", st)
	}

	resident := 0
	for n := 0; n < tags; n++ {
		key := tagQuery(tagOf(n)).Key()
		_, isResident := srv.ActiveList().Get(key)
		_, before := srv.InvaliDB().Stats()
		insertPost(t, srv, fmt.Sprintf("probe%d", n), tagOf(n))
		settle(t, srv)
		_, after := srv.InvaliDB().Stats()
		switch {
		case isResident && after != before+1:
			t.Errorf("resident query %s: a matching insert produced %d notifications, want 1", key, after-before)
		case !isResident && after != before:
			t.Errorf("query %s is not resident but still matched (%d notifications)", key, after-before)
		}
		if isResident {
			resident++
		}
	}
	if resident != srv.ActiveList().Len() {
		t.Errorf("%d resident keys found, active list holds %d", resident, srv.ActiveList().Len())
	}
}

func TestPinnedSubscriptionSurvivesEviction(t *testing.T) {
	srv, clock := registryServer(t, 2)
	insertPost(t, srv, "p1", "live")
	live := tagQuery("live")
	sub, err := srv.Subscribe(live)
	if err != nil {
		t.Fatal(err)
	}

	// Admission pressure: every round the unpinned slot's TTL lapses and a
	// new query takes it. The subscription has no TTL at all, yet stays.
	for i := 0; i < 6; i++ {
		clock.Advance(2 * time.Hour)
		if res, err := srv.Query(tagQuery(fmt.Sprintf("t%d", i))); err != nil || !res.Cacheable {
			t.Fatalf("query %d: %+v %v", i, res, err)
		}
		checkRegistryBound(t, srv, 2)
	}
	insertPost(t, srv, "p2", "live")
	select {
	case n := <-sub.Events():
		if n.QueryKey != live.Key() || n.Type != invalidb.EventAdd {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pinned subscription lost its InvaliDB registration")
	}

	// Two pinned entries fill the registry: nothing is evictable.
	clock.Advance(2 * time.Hour)
	other, err := srv.Subscribe(tagQuery("other"))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if res, err := srv.Query(tagQuery("late")); err != nil || res.Cacheable {
		t.Errorf("query against a fully pinned registry: %+v %v", res, err)
	}
	if _, err := srv.Subscribe(tagQuery("late")); !errors.Is(err, invalidb.ErrAtCapacity) {
		t.Errorf("Subscribe against a fully pinned registry: %v, want ErrAtCapacity", err)
	}

	// After Close the entry is an ordinary, already lapsed one.
	sub.Close()
	if res, err := srv.Query(tagQuery("late")); err != nil || !res.Cacheable {
		t.Errorf("query after the subscription closed: %+v %v", res, err)
	}
	if _, ok := srv.ActiveList().Get(live.Key()); ok {
		t.Error("closed subscription's entry was not reclaimed")
	}
	checkRegistryBound(t, srv, 2)
}
