package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"quaestor/internal/commitlog"
	"quaestor/internal/document"
	"quaestor/internal/query"
)

func openWithTable(t *testing.T, table string) *Store {
	t.Helper()
	s := MustOpen(nil)
	t.Cleanup(s.Close)
	if err := s.CreateTable(table); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInsertGet(t *testing.T) {
	s := openWithTable(t, "posts")
	d := document.New("p1", map[string]any{"title": "hi"})
	if err := s.Insert("posts", d); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("title"); v != "hi" {
		t.Errorf("title = %v", v)
	}
	if got.Version != 1 {
		t.Errorf("fresh insert version = %d", got.Version)
	}
}

func TestInsertDuplicate(t *testing.T) {
	s := openWithTable(t, "posts")
	if err := s.Insert("posts", document.New("p1", nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("posts", document.New("p1", nil)); !errors.Is(err, ErrExists) {
		t.Errorf("want ErrExists, got %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	s := openWithTable(t, "posts")
	if err := s.Insert("posts", nil); !errors.Is(err, ErrNilDocument) {
		t.Errorf("nil doc: %v", err)
	}
	if err := s.Insert("posts", document.New("", nil)); !errors.Is(err, ErrEmptyID) {
		t.Errorf("empty id: %v", err)
	}
	if err := s.Insert("nope", document.New("x", nil)); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
	if err := s.CreateTable(""); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("empty table: %v", err)
	}
	if _, err := s.Get("posts", "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing doc: %v", err)
	}
}

func TestPutUpsertsAndIncrementsVersion(t *testing.T) {
	s := openWithTable(t, "posts")
	if err := s.Put("posts", document.New("p1", map[string]any{"n": 1})); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("posts", document.New("p1", map[string]any{"n": 2})); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("posts", "p1")
	if got.Version != 2 {
		t.Errorf("version = %d, want 2", got.Version)
	}
	if v, _ := got.Get("n"); v != int64(2) {
		t.Errorf("n = %v", v)
	}
}

func TestUpdateSpecOperations(t *testing.T) {
	s := openWithTable(t, "posts")
	err := s.Insert("posts", document.New("p1", map[string]any{
		"count": 10,
		"tags":  []any{"a", "b"},
		"meta":  map[string]any{"old": true},
	}))
	if err != nil {
		t.Fatal(err)
	}
	after, err := s.Update("posts", "p1", UpdateSpec{
		Set:   map[string]any{"title": "new", "meta.new": 1},
		Unset: []string{"meta.old"},
		Inc:   map[string]float64{"count": 5},
		Push:  map[string]any{"tags": "c"},
		Pull:  map[string]any{"tags": "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := after.Get("title"); v != "new" {
		t.Errorf("set failed: %v", v)
	}
	if _, ok := after.Get("meta.old"); ok {
		t.Error("unset failed")
	}
	if v, _ := after.Get("count"); v != int64(15) {
		t.Errorf("inc failed: %v", v)
	}
	tags, _ := after.Get("tags")
	if document.Canonical(tags) != `["b","c"]` {
		t.Errorf("push/pull failed: %v", tags)
	}
	if after.Version != 2 {
		t.Errorf("version = %d", after.Version)
	}
}

func TestUpdateIncCreatesAndFractions(t *testing.T) {
	s := openWithTable(t, "posts")
	if err := s.Insert("posts", document.New("p1", nil)); err != nil {
		t.Fatal(err)
	}
	after, err := s.Update("posts", "p1", UpdateSpec{Inc: map[string]float64{"score": 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := after.Get("score"); v != float64(2.5) {
		t.Errorf("fractional inc: %v", v)
	}
	after, err = s.Update("posts", "p1", UpdateSpec{Inc: map[string]float64{"score": 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := after.Get("score"); v != int64(5) {
		t.Errorf("integral result should normalize to int64: %v (%T)", v, v)
	}
}

func TestUpdateBadSpecs(t *testing.T) {
	s := openWithTable(t, "posts")
	if err := s.Insert("posts", document.New("p1", map[string]any{"s": "str"})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("posts", "p1", UpdateSpec{Inc: map[string]float64{"s": 1}}); !errors.Is(err, ErrBadUpdateSpec) {
		t.Errorf("inc on string: %v", err)
	}
	if _, err := s.Update("posts", "p1", UpdateSpec{Push: map[string]any{"s": 1}}); !errors.Is(err, ErrBadUpdateSpec) {
		t.Errorf("push on string: %v", err)
	}
	if _, err := s.Update("posts", "p1", UpdateSpec{Pull: map[string]any{"s": 1}}); !errors.Is(err, ErrBadUpdateSpec) {
		t.Errorf("pull on string: %v", err)
	}
	// Failed updates must not bump the version or mutate the document.
	got, _ := s.Get("posts", "p1")
	if got.Version != 1 {
		t.Errorf("failed update changed version: %d", got.Version)
	}
}

func TestUpdateIfVersion(t *testing.T) {
	s := openWithTable(t, "posts")
	if err := s.Insert("posts", document.New("p1", map[string]any{"n": 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("posts", "p1", UpdateSpec{Set: map[string]any{"n": 2}, IfVersion: 99}); !errors.Is(err, ErrVersionCheck) {
		t.Errorf("want ErrVersionCheck, got %v", err)
	}
	if _, err := s.Update("posts", "p1", UpdateSpec{Set: map[string]any{"n": 2}, IfVersion: 1}); err != nil {
		t.Errorf("matching precondition failed: %v", err)
	}
}

func TestDelete(t *testing.T) {
	s := openWithTable(t, "posts")
	if err := s.Insert("posts", document.New("p1", nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("posts", "p1"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted doc still readable")
	}
	if err := s.Delete("posts", "p1"); !errors.Is(err, ErrNotFound) {
		t.Error("double delete should be ErrNotFound")
	}
}

func TestQueryEvaluation(t *testing.T) {
	s := openWithTable(t, "posts")
	for i := 0; i < 10; i++ {
		tag := "even"
		if i%2 == 1 {
			tag = "odd"
		}
		err := s.Insert("posts", document.New(fmt.Sprintf("p%02d", i), map[string]any{
			"tags": []any{tag}, "n": i,
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	q := query.New("posts", query.Contains("tags", "even")).Sorted(query.Desc("n"))
	docs, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 5 {
		t.Fatalf("want 5 docs, got %d", len(docs))
	}
	if n, _ := docs[0].Get("n"); n != int64(8) {
		t.Errorf("descending sort broken: first n = %v", n)
	}
	count, err := s.Count("posts")
	if err != nil || count != 10 {
		t.Errorf("count = %d, %v", count, err)
	}
}

func TestChangeStreamEventsAndOrdering(t *testing.T) {
	s := openWithTable(t, "posts")
	ch, cancel := s.Subscribe()
	defer cancel()

	if err := s.Insert("posts", document.New("p1", map[string]any{"n": 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("posts", "p1", UpdateSpec{Set: map[string]any{"n": 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("posts", "p1"); err != nil {
		t.Fatal(err)
	}

	var events []ChangeEvent
	for i := 0; i < 3; i++ {
		select {
		case ev := <-ch:
			events = append(events, ev)
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for event %d", i)
		}
	}
	if events[0].Op != OpInsert || events[1].Op != OpUpdate || events[2].Op != OpDelete {
		t.Fatalf("ops = %v %v %v", events[0].Op, events[1].Op, events[2].Op)
	}
	if !(events[0].Seq < events[1].Seq && events[1].Seq < events[2].Seq) {
		t.Error("sequence numbers not increasing")
	}
	if events[0].Before != nil {
		t.Error("insert should have nil pre-image")
	}
	if v, _ := events[1].After.Get("n"); v != int64(2) {
		t.Errorf("update after-image n = %v", v)
	}
	if v, _ := events[1].Before.Get("n"); v != int64(1) {
		t.Errorf("update pre-image n = %v", v)
	}
	if !events[2].Deleted {
		t.Error("delete event not flagged")
	}
	if events[0].Key() != "posts/p1" {
		t.Errorf("event key = %q", events[0].Key())
	}
}

func TestAfterImageIsImmutable(t *testing.T) {
	s := openWithTable(t, "posts")
	ch, cancel := s.Subscribe()
	defer cancel()
	if err := s.Insert("posts", document.New("p1", map[string]any{"n": 1})); err != nil {
		t.Fatal(err)
	}
	ev := <-ch
	// Later writes must not alter the delivered after-image.
	if _, err := s.Update("posts", "p1", UpdateSpec{Set: map[string]any{"n": 99}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := ev.After.Get("n"); v != int64(1) {
		t.Errorf("after-image mutated by later write: %v", v)
	}
}

// TestReplayCoveredGap: a gap the change ring covers replays exactly the
// table's events after the floor, oldest first.
func TestReplayCoveredGap(t *testing.T) {
	s := openWithTable(t, "posts")
	if err := s.CreateTable("other"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Insert("posts", document.New(fmt.Sprintf("p%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	mid := s.LastSeq()
	for i := 5; i < 8; i++ {
		if err := s.Insert("posts", document.New(fmt.Sprintf("p%d", i), nil)); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert("other", document.New(fmt.Sprintf("o%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	replay, err := s.Replay("posts", mid)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 3 {
		t.Fatalf("want 3 replay events, got %d", len(replay))
	}
	for i, ev := range replay {
		if ev.Seq <= mid || ev.Table != "posts" || (i > 0 && ev.Seq <= replay[i-1].Seq) {
			t.Errorf("replay[%d] = seq %d of %q after floor %d", i, ev.Seq, ev.Table, mid)
		}
	}
	if got, err := s.Replay("nope", 0); got != nil || err != nil {
		t.Errorf("unknown table replay = %v, %v; want nil, nil", got, err)
	}
}

// TestReplayRingOverflow: once the change ring overwrote part of the gap,
// Replay refuses it with ErrSeqTruncated instead of returning the newest
// events alone — an activation on that partial history would miss the
// invalidations of the lost ones.
func TestReplayRingOverflow(t *testing.T) {
	s := MustOpen(&Options{ChangeBuffer: 4})
	defer s.Close()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Insert("t", document.New(fmt.Sprintf("p%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	// The ring retains seqs 7..10.
	for _, floor := range []uint64{0, 5} {
		if got, err := s.Replay("t", floor); !errors.Is(err, commitlog.ErrSeqTruncated) || got != nil {
			t.Errorf("Replay(t, %d) = %d events, %v; want ErrSeqTruncated", floor, len(got), err)
		}
	}
	replay, err := s.Replay("t", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 4 || replay[0].Seq != 7 || replay[3].Seq != 10 {
		t.Errorf("Replay(t, 6) = %d events, want seqs 7..10", len(replay))
	}
}

func TestConcurrentWritersPerKeyMonotonic(t *testing.T) {
	s := openWithTable(t, "posts")
	if err := s.Insert("posts", document.New("p1", map[string]any{"n": 0})); err != nil {
		t.Fatal(err)
	}
	const writers, iters = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := s.Update("posts", "p1", UpdateSpec{Inc: map[string]float64{"n": 1}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, _ := s.Get("posts", "p1")
	if v, _ := got.Get("n"); v != int64(writers*iters) {
		t.Errorf("lost updates: n = %v, want %d", v, writers*iters)
	}
	if got.Version != int64(writers*iters)+1 {
		t.Errorf("version = %d, want %d", got.Version, writers*iters+1)
	}
}

func TestCloseSemantics(t *testing.T) {
	s := MustOpen(nil)
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	ch, _ := s.Subscribe()
	s.Close()
	if _, ok := <-ch; ok {
		t.Error("subscription channel should close on store close")
	}
	if err := s.Insert("t", document.New("x", nil)); !errors.Is(err, ErrClosed) {
		t.Errorf("insert after close: %v", err)
	}
	s.Close() // double close must be safe
}

func TestTablesSorted(t *testing.T) {
	s := MustOpen(nil)
	defer s.Close()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := s.CreateTable(name); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Tables()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tables = %v", got)
		}
	}
	// Re-creating is a no-op.
	if err := s.CreateTable("alpha"); err != nil {
		t.Fatal(err)
	}
	if len(s.Tables()) != 3 {
		t.Error("duplicate create changed table count")
	}
}

// TestRefusedUnitLeavesAfterNil: Apply sets a write's After exactly when
// readers can see the write, so a unit refused by its last write leaves
// the After its earlier writes were decided with unset, and the store
// unchanged.
func TestRefusedUnitLeavesAfterNil(t *testing.T) {
	s := openWithTable(t, "t")
	writes := []Write{
		{Kind: WritePut, Table: "t", ID: "a", Doc: document.New("a", map[string]any{"n": int64(1)})},
		{Kind: WriteUpdate, Table: "t", ID: "missing", Spec: UpdateSpec{Set: map[string]any{"n": int64(2)}}},
	}
	if err := s.Apply(writes); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Apply: %v, want ErrNotFound", err)
	}
	for i, w := range writes {
		if w.After != nil {
			t.Errorf("writes[%d].After = %v after a refused unit", i, w.After)
		}
	}
	if _, err := s.Get("t", "a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get a: %v, want ErrNotFound", err)
	}
	writes[1] = Write{Kind: WriteDelete, Table: "t", ID: "missing"}
	writes[0].Doc = document.New("a", map[string]any{"n": int64(1)})
	if err := s.Apply(writes); err != nil {
		t.Fatal(err)
	}
	if writes[0].After == nil || writes[0].After.Version != 1 || writes[1].After != nil {
		t.Errorf("After = %v, %v; want a at version 1 and nil for the delete that found nothing", writes[0].After, writes[1].After)
	}
}
