package invalidb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// collector drains a cluster's notifications into a slice.
type collector struct {
	mu     sync.Mutex
	events []Notification
	done   chan struct{}
}

func collect(c *Cluster) *collector {
	col := &collector{done: make(chan struct{})}
	go func() {
		defer close(col.done)
		for n := range c.Notifications() {
			col.mu.Lock()
			col.events = append(col.events, n)
			col.mu.Unlock()
		}
	}()
	return col
}

func (col *collector) snapshot() []Notification {
	col.mu.Lock()
	defer col.mu.Unlock()
	return append([]Notification(nil), col.events...)
}

// wait polls until the collector holds at least n events or times out.
func (col *collector) wait(t *testing.T, n int) []Notification {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if evs := col.snapshot(); len(evs) >= n {
			return evs
		}
		time.Sleep(time.Millisecond)
	}
	evs := col.snapshot()
	t.Fatalf("timed out waiting for %d notifications, have %d: %v", n, len(evs), evs)
	return nil
}

func newTestPipeline(t *testing.T, cfg *Config) (*store.Store, *Cluster, *collector) {
	t.Helper()
	db := store.MustOpen(nil)
	if err := db.CreateTable("posts"); err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(cfg)
	detach := cluster.AttachStore(db)
	col := collect(cluster)
	t.Cleanup(func() {
		detach()
		cluster.Stop()
		<-col.done
		db.Close()
	})
	return db, cluster, col
}

func tagQuery(tag string) *query.Query {
	return query.New("posts", query.Contains("tags", tag))
}

func post(id string, tags ...string) *document.Document {
	arr := make([]any, len(tags))
	for i, tg := range tags {
		arr[i] = tg
	}
	return document.New(id, map[string]any{"tags": arr, "rating": int64(len(id))})
}

func TestAddChangeRemoveLifecycle(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	if err := cluster.Activate(Registration{Query: tagQuery("example"), Mask: MaskObjectList}); err != nil {
		t.Fatal(err)
	}

	// Figure 5's lifecycle.
	if err := db.Insert("posts", post("p1")); err != nil { // no tags: no event
		t.Fatal(err)
	}
	if _, err := db.Update("posts", "p1", store.UpdateSpec{Push: map[string]any{"tags": "example"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("posts", "p1", store.UpdateSpec{Push: map[string]any{"tags": "music"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("posts", "p1", store.UpdateSpec{Pull: map[string]any{"tags": "example"}}); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs := col.wait(t, 3)
	if len(evs) != 3 {
		t.Fatalf("want exactly add/change/remove, got %v", evs)
	}
	if evs[0].Type != EventAdd || evs[1].Type != EventChange || evs[2].Type != EventRemove {
		t.Errorf("lifecycle = %v %v %v", evs[0].Type, evs[1].Type, evs[2].Type)
	}
	for _, ev := range evs {
		if ev.Doc == nil || ev.Doc.ID != "p1" {
			t.Errorf("event doc = %+v", ev.Doc)
		}
		if ev.Index != -1 {
			t.Errorf("stateless query should report index -1, got %d", ev.Index)
		}
		if ev.DetectedAt.Before(ev.EventTime) {
			t.Error("detection before event time")
		}
	}
}

func TestDeleteEmitsRemove(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	if err := db.Insert("posts", post("p1", "example")); err != nil {
		t.Fatal(err)
	}
	asOf := db.LastSeq()
	docs, _ := db.Query(tagQuery("example"))
	if err := cluster.Activate(Registration{
		Query: tagQuery("example"), Mask: MaskObjectList,
		InitialMatches: docs, AsOfSeq: asOf,
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs := col.wait(t, 1)
	if evs[0].Type != EventRemove {
		t.Errorf("delete should remove from result, got %v", evs[0].Type)
	}
}

func TestMaskIDListSuppressesChange(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	if err := db.Insert("posts", post("p1", "example")); err != nil {
		t.Fatal(err)
	}
	docs, _ := db.Query(tagQuery("example"))
	if err := cluster.Activate(Registration{
		Query: tagQuery("example"), Mask: MaskIDList,
		InitialMatches: docs, AsOfSeq: db.LastSeq(),
	}); err != nil {
		t.Fatal(err)
	}
	// In-place change: suppressed for id-lists.
	if _, err := db.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"rating": 99}}); err != nil {
		t.Fatal(err)
	}
	// Membership change: delivered.
	if _, err := db.Update("posts", "p1", store.UpdateSpec{Pull: map[string]any{"tags": "example"}}); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs := col.wait(t, 1)
	if len(evs) != 1 || evs[0].Type != EventRemove {
		t.Errorf("id-list mask should deliver only the remove, got %v", evs)
	}
}

func TestInitialMatchesSeedWasMatchState(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	if err := db.Insert("posts", post("p1", "example")); err != nil {
		t.Fatal(err)
	}
	docs, _ := db.Query(tagQuery("example"))
	if err := cluster.Activate(Registration{
		Query: tagQuery("example"), Mask: MaskObjectList,
		InitialMatches: docs, AsOfSeq: db.LastSeq(),
	}); err != nil {
		t.Fatal(err)
	}
	// p1 was already matching: an in-place update must be a change, not add.
	if _, err := db.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"rating": 5}}); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs := col.wait(t, 1)
	if evs[0].Type != EventChange {
		t.Errorf("pre-seeded member should emit change, got %v", evs[0].Type)
	}
}

func TestReplayClosesActivationGap(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	// A write happens between evaluation (asOf) and activation.
	asOf := db.LastSeq()
	if err := db.Insert("posts", post("p1", "example")); err != nil {
		t.Fatal(err)
	}
	// Initial evaluation happened BEFORE the insert: empty result.
	if err := cluster.Activate(Registration{
		Query:          tagQuery("example"),
		Mask:           MaskObjectList,
		InitialMatches: nil,
		AsOfSeq:        asOf,
		ReadReplay:     func() ([]store.ChangeEvent, error) { return db.Replay("posts", asOf) },
	}); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs := col.wait(t, 1)
	if evs[0].Type != EventAdd || evs[0].Doc.ID != "p1" {
		t.Errorf("replay should surface the missed insert: %v", evs)
	}
}

// TestReplayIsReadAfterInstall: a write published just after the
// activation's replay was read, and delivered to the cells before
// Activate goes on, is still matched. Were the replay read before the
// query is installed in its cells, the write would be in neither the
// replay nor the cells' view.
func TestReplayIsReadAfterInstall(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	asOf := db.LastSeq()
	err := cluster.Activate(Registration{
		Query:   tagQuery("example"),
		Mask:    MaskObjectList,
		AsOfSeq: asOf,
		ReadReplay: func() ([]store.ChangeEvent, error) {
			replay, err := db.Replay("posts", asOf)
			if err == nil {
				err = db.Insert("posts", post("p1", "example"))
			}
			cluster.Quiesce(5 * time.Second)
			return replay, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	if evs := col.wait(t, 1); evs[0].Type != EventAdd || evs[0].Doc.ID != "p1" {
		t.Errorf("the write after the replay's read was not matched: %v", evs)
	}
}

// TestReplayReadErrorDeactivates: a replay that cannot be read fails the
// activation and leaves no query behind.
func TestReplayReadErrorDeactivates(t *testing.T) {
	_, cluster, _ := newTestPipeline(t, nil)
	gone := errors.New("ring overwritten")
	err := cluster.Activate(Registration{
		Query:      tagQuery("example"),
		ReadReplay: func() ([]store.ChangeEvent, error) { return nil, gone },
	})
	if !errors.Is(err, gone) || cluster.ActiveQueries() != 0 {
		t.Errorf("Activate = %v with %d active queries; want %v and none", err, cluster.ActiveQueries(), gone)
	}
}

func TestDeactivateStopsNotifications(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	q := tagQuery("example")
	if err := cluster.Activate(Registration{Query: q, Mask: MaskObjectList}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("posts", post("p1", "example")); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	col.wait(t, 1)
	if err := cluster.Deactivate(q.Key()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("posts", post("p2", "example")); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	time.Sleep(50 * time.Millisecond)
	if evs := col.snapshot(); len(evs) != 1 {
		t.Errorf("deactivated query still notified: %v", evs)
	}
	if err := cluster.Deactivate(q.Key()); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("double deactivate: %v", err)
	}
	if cluster.ActiveQueries() != 0 {
		t.Errorf("ActiveQueries = %d", cluster.ActiveQueries())
	}
}

func TestCapacityLimit(t *testing.T) {
	_, cluster, _ := newTestPipeline(t, &Config{MaxQueries: 2})
	if err := cluster.Activate(Registration{Query: tagQuery("a")}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Activate(Registration{Query: tagQuery("b")}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Activate(Registration{Query: tagQuery("c")}); !errors.Is(err, ErrAtCapacity) {
		t.Errorf("want ErrAtCapacity, got %v", err)
	}
	// Idempotent re-activation of a registered query is not a capacity hit.
	if err := cluster.Activate(Registration{Query: tagQuery("a")}); err != nil {
		t.Errorf("re-activation failed: %v", err)
	}
	// Freeing a slot admits the blocked query.
	if err := cluster.Deactivate(tagQuery("a").Key()); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Activate(Registration{Query: tagQuery("c")}); err != nil {
		t.Errorf("activation after eviction failed: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	_, cluster, _ := newTestPipeline(t, nil)
	if err := cluster.Activate(Registration{}); !errors.Is(err, ErrNilQuery) {
		t.Errorf("nil query: %v", err)
	}
	if err := cluster.Deactivate("unknown"); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("unknown deactivate: %v", err)
	}
}

func TestStopIsIdempotentAndClosesOutput(t *testing.T) {
	cluster := NewCluster(nil)
	cluster.Stop()
	cluster.Stop()
	if _, ok := <-cluster.Notifications(); ok {
		t.Error("notification channel should be closed")
	}
	if err := cluster.Activate(Registration{Query: tagQuery("x")}); !errors.Is(err, ErrStopped) {
		t.Errorf("activate after stop: %v", err)
	}
}

// TestGridShapeEquivalence drives identical workloads through differently
// shaped clusters (1×1, 4×1, 1×4, 2×3) and asserts that the multiset of
// notifications is identical — partitioning must never change semantics,
// only distribution. This is the correctness core of the paper's
// scalability claim.
func TestGridShapeEquivalence(t *testing.T) {
	shapes := []Config{
		{QueryPartitions: 1, ObjectPartitions: 1},
		{QueryPartitions: 4, ObjectPartitions: 1},
		{QueryPartitions: 1, ObjectPartitions: 4},
		{QueryPartitions: 2, ObjectPartitions: 3},
	}
	var reference []string
	for si, shape := range shapes {
		cfg := shape
		db, cluster, col := newTestPipeline(t, &cfg)
		for qi := 0; qi < 10; qi++ {
			if err := cluster.Activate(Registration{Query: tagQuery(fmt.Sprintf("t%d", qi)), Mask: MaskObjectList}); err != nil {
				t.Fatal(err)
			}
		}
		// Deterministic workload touching every query.
		for i := 0; i < 60; i++ {
			id := fmt.Sprintf("p%02d", i%20)
			tag := fmt.Sprintf("t%d", i%10)
			if i%20 == i {
				if err := db.Insert("posts", post(id, tag)); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := db.Update("posts", id, store.UpdateSpec{
					Set: map[string]any{"tags": []any{tag}},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !cluster.Quiesce(10 * time.Second) {
			t.Fatalf("shape %d did not quiesce", si)
		}
		time.Sleep(20 * time.Millisecond)
		var sigs []string
		for _, ev := range col.snapshot() {
			sigs = append(sigs, fmt.Sprintf("%s|%s|%s|%d", ev.QueryKey, ev.Type, ev.Doc.ID, ev.Seq))
		}
		sort.Strings(sigs)
		if si == 0 {
			reference = sigs
			if len(reference) == 0 {
				t.Fatal("reference shape produced no notifications")
			}
			continue
		}
		if len(sigs) != len(reference) {
			t.Fatalf("shape %d produced %d notifications, reference %d", si, len(sigs), len(reference))
		}
		for i := range sigs {
			if sigs[i] != reference[i] {
				t.Fatalf("shape %d diverged at %d: %s vs %s", si, i, sigs[i], reference[i])
			}
		}
	}
}

func TestStatsAndNodeCount(t *testing.T) {
	db, cluster, col := newTestPipeline(t, &Config{QueryPartitions: 2, ObjectPartitions: 2})
	if cluster.MatchingNodes() != 4 {
		t.Errorf("MatchingNodes = %d", cluster.MatchingNodes())
	}
	if err := cluster.Activate(Registration{Query: tagQuery("x")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("posts", post("p1", "x")); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	col.wait(t, 1)
	ingested, notified := cluster.Stats()
	if ingested != 1 || notified != 1 {
		t.Errorf("stats = %d, %d", ingested, notified)
	}
}

func TestDifferentTablesDoNotCrossMatch(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	if err := db.CreateTable("users"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Activate(Registration{Query: tagQuery("x")}); err != nil { // on posts
		t.Fatal(err)
	}
	if err := db.Insert("users", post("u1", "x")); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	time.Sleep(30 * time.Millisecond)
	if evs := col.snapshot(); len(evs) != 0 {
		t.Errorf("query matched a different table: %v", evs)
	}
}

// TestHash32IsFNV1a pins partition routing to hash/fnv's 32-bit FNV-1a.
func TestHash32IsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "doc-00042", "q:posts/{\"tags\":{\"$contains\":\"x\"}}", "ü/ß"} {
		h := fnv.New32a()
		h.Write([]byte(s))
		if got, want := hash32(s), h.Sum32(); got != want {
			t.Errorf("hash32(%q) = %#x, want %#x", s, got, want)
		}
	}
}
