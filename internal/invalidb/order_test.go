package invalidb

import (
	"fmt"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

func ratedPost(id string, rating int, tags ...string) *document.Document {
	arr := make([]any, len(tags))
	for i, tg := range tags {
		arr[i] = tg
	}
	return document.New(id, map[string]any{"tags": arr, "rating": int64(rating)})
}

// topQuery returns "top `limit` by rating" over tag-matching posts.
func topQuery(tag string, offset, limit int) *query.Query {
	return query.New("posts", query.Contains("tags", tag)).
		Sorted(query.Desc("rating")).Sliced(offset, limit)
}

func TestStatefulWindowAddWithIndex(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	if err := cluster.Activate(Registration{Query: topQuery("x", 0, 2), Mask: MaskObjectList}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("posts", ratedPost("a", 10, "x")); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs := col.wait(t, 1)
	if evs[0].Type != EventAdd || evs[0].Index != 0 {
		t.Fatalf("first insert should land at index 0: %+v", evs[0])
	}
	// A higher-rated post takes position 0 and shifts "a" to 1.
	if err := db.Insert("posts", ratedPost("b", 50, "x")); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs = col.wait(t, 3)
	types := map[EventType]Notification{}
	for _, ev := range evs[1:] {
		types[ev.Type] = ev
	}
	add, hasAdd := types[EventAdd]
	ci, hasCI := types[EventChangeIndex]
	if !hasAdd || add.Doc.ID != "b" || add.Index != 0 {
		t.Errorf("add event wrong: %+v", add)
	}
	if !hasCI || ci.Doc.ID != "a" || ci.Index != 1 {
		t.Errorf("changeIndex event wrong: %+v", ci)
	}
}

func TestStatefulWindowEviction(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	// Window holds top-2; inserting three posts must evict the lowest.
	if err := cluster.Activate(Registration{Query: topQuery("x", 0, 2), Mask: MaskObjectList}); err != nil {
		t.Fatal(err)
	}
	for i, r := range []int{10, 20} {
		if err := db.Insert("posts", ratedPost(fmt.Sprintf("p%d", i), r, "x")); err != nil {
			t.Fatal(err)
		}
	}
	cluster.Quiesce(5 * time.Second)
	before := len(col.wait(t, 2))
	// rating 30 enters at index 0, pushing p0 (rating 10) out of the window.
	if err := db.Insert("posts", ratedPost("p2", 30, "x")); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs := col.wait(t, before+2)[before:]
	var sawRemove, sawAdd bool
	for _, ev := range evs {
		switch ev.Type {
		case EventRemove:
			if ev.Doc.ID != "p0" {
				t.Errorf("evicted %s, want p0", ev.Doc.ID)
			}
			sawRemove = true
		case EventAdd:
			if ev.Doc.ID != "p2" || ev.Index != 0 {
				t.Errorf("add = %+v", ev)
			}
			sawAdd = true
		}
	}
	if !sawRemove || !sawAdd {
		t.Errorf("window eviction events missing: %v", evs)
	}
}

func TestStatefulOffsetWindow(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	// Pre-populate ratings 40,30,20,10 then register offset=1 limit=2
	// (window = ranks 2-3: ratings 30,20).
	ratings := map[string]int{"a": 40, "b": 30, "c": 20, "d": 10}
	for id, r := range ratings {
		if err := db.Insert("posts", ratedPost(id, r, "x")); err != nil {
			t.Fatal(err)
		}
	}
	docs, _ := db.Query(query.New("posts", query.Contains("tags", "x")))
	q := topQuery("x", 1, 2)
	if err := cluster.Activate(Registration{
		Query: q, Mask: MaskObjectList,
		InitialMatches: docs, AsOfSeq: db.LastSeq(),
	}); err != nil {
		t.Fatal(err)
	}
	// Bump "d" to rating 35: enters window at index 1... ordering: a(40),
	// d(35), b(30), c(20) -> window [d(0->idx0? offset=1)]: ranks are
	// a, d, b, c; window offset1,limit2 = {d? no: index1=d, index2=b}.
	// Before: window = {b, c}; after: window = {d, b}: c removed, d added,
	// b repositioned 0->1.
	if _, err := db.Update("posts", "d", store.UpdateSpec{Set: map[string]any{"rating": 35}}); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs := col.wait(t, 3)
	got := map[EventType]string{}
	for _, ev := range evs {
		got[ev.Type] = ev.Doc.ID
	}
	if got[EventRemove] != "c" || got[EventAdd] != "d" || got[EventChangeIndex] != "b" {
		t.Errorf("offset window diff wrong: %v", got)
	}
}

func TestStatefulChangeWithoutReorder(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	if err := db.Insert("posts", ratedPost("a", 10, "x")); err != nil {
		t.Fatal(err)
	}
	docs, _ := db.Query(query.New("posts", query.Contains("tags", "x")))
	if err := cluster.Activate(Registration{
		Query: topQuery("x", 0, 5), Mask: MaskObjectList,
		InitialMatches: docs, AsOfSeq: db.LastSeq(),
	}); err != nil {
		t.Fatal(err)
	}
	// Changing a non-sort field keeps position: change event with index.
	if _, err := db.Update("posts", "a", store.UpdateSpec{Set: map[string]any{"title": "new"}}); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs := col.wait(t, 1)
	if evs[0].Type != EventChange || evs[0].Index != 0 {
		t.Errorf("in-place change = %+v", evs[0])
	}
}

func TestStatefulRemoveFromPredicate(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	if err := db.Insert("posts", ratedPost("a", 10, "x")); err != nil {
		t.Fatal(err)
	}
	docs, _ := db.Query(query.New("posts", query.Contains("tags", "x")))
	if err := cluster.Activate(Registration{
		Query: topQuery("x", 0, 5), Mask: MaskObjectList,
		InitialMatches: docs, AsOfSeq: db.LastSeq(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("posts", "a", store.UpdateSpec{Set: map[string]any{"tags": []any{}}}); err != nil {
		t.Fatal(err)
	}
	cluster.Quiesce(5 * time.Second)
	evs := col.wait(t, 1)
	if evs[0].Type != EventRemove {
		t.Errorf("predicate exit should remove: %+v", evs[0])
	}
}

// TestStatefulWindowMatchesDirectEvaluation is a randomized property: after
// any sequence of writes, the order layer's window notifications, replayed
// onto a shadow result, equal a from-scratch evaluation of the windowed
// query against the store.
func TestStatefulWindowMatchesDirectEvaluation(t *testing.T) {
	db, cluster, col := newTestPipeline(t, &Config{QueryPartitions: 2, ObjectPartitions: 2})
	q := topQuery("x", 0, 3)
	if err := cluster.Activate(Registration{Query: q, Mask: MaskObjectList}); err != nil {
		t.Fatal(err)
	}
	rng := func(i, m int) int { return (i*48271 + 31) % m }
	for i := 0; i < 120; i++ {
		id := fmt.Sprintf("p%d", rng(i, 8))
		rating := rng(i*7, 100)
		tag := "x"
		if rng(i*13, 4) == 0 {
			tag = "other"
		}
		if _, err := db.Get("posts", id); err != nil {
			if err := db.Insert("posts", ratedPost(id, rating, tag)); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := db.Update("posts", id, store.UpdateSpec{Set: map[string]any{
				"rating": int64(rating), "tags": []any{tag},
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !cluster.Quiesce(10 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	time.Sleep(30 * time.Millisecond)

	// Replay the notifications into a shadow window.
	shadow := map[string]int{} // id -> last index
	for _, ev := range col.snapshot() {
		switch ev.Type {
		case EventAdd, EventChangeIndex, EventChange:
			shadow[ev.Doc.ID] = ev.Index
		case EventRemove:
			delete(shadow, ev.Doc.ID)
		}
	}
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(shadow) != len(want) {
		t.Fatalf("shadow window has %d members, direct evaluation %d (%v vs %v)", len(shadow), len(want), shadow, want)
	}
	for i, d := range want {
		if got, ok := shadow[d.ID]; !ok || got != i {
			t.Errorf("member %s: shadow index %d (present=%v), want %d", d.ID, got, ok, i)
		}
	}
}
