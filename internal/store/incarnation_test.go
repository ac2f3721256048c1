package store

import (
	"bytes"
	"fmt"
	"testing"

	"quaestor/internal/document"
	"quaestor/internal/wal"
)

func mustVersion(t *testing.T, s *Store, table, id string) int64 {
	t.Helper()
	doc, err := s.Get(table, id)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Version
}

// TestVersionsContinueAcrossDelete: (id, version) must name one content
// for the life of the table — it is the record ETag — so an id re-created
// after a delete continues from its tombstone instead of restarting at 1.
func TestVersionsContinueAcrossDelete(t *testing.T) {
	s := openWithTable(t, "posts")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Insert("posts", document.New("p1", map[string]any{"body": "A"})))
	_, err := s.Update("posts", "p1", UpdateSpec{Set: map[string]any{"n": 1}})
	must(err)
	must(s.Delete("posts", "p1")) // tombstone v3
	must(s.Insert("posts", document.New("p1", map[string]any{"body": "B"})))
	if v := mustVersion(t, s, "posts", "p1"); v != 4 {
		t.Errorf("re-inserted p1 at v%d, want v4 (one past the tombstone)", v)
	}
	must(s.Delete("posts", "p1")) // tombstone v5
	must(s.Put("posts", document.New("p1", map[string]any{"body": "C"})))
	if v := mustVersion(t, s, "posts", "p1"); v != 6 {
		t.Errorf("re-put p1 at v%d, want v6", v)
	}
	must(s.Insert("posts", document.New("p2", nil)))
	if v := mustVersion(t, s, "posts", "p2"); v != 1 {
		t.Errorf("a never-deleted id starts at v%d, want v1", v)
	}
}

// TestVersionContinuitySurvivesRecoveryAndReplication: the tombstone
// version travels in delete records (WAL replay, replication stream) and,
// collapsed to the table's floor, in snapshots (restart, replica
// bootstrap), so no path resets an id's count.
func TestVersionContinuitySurvivesRecoveryAndReplication(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, wal.FsyncNever)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.CreateTable("docs"))
	must(s.Insert("docs", document.New("a", nil)))
	must(s.Put("docs", document.New("a", map[string]any{"n": 1})))
	must(s.Delete("docs", "a")) // tombstone v3
	s.Close()

	// WAL replay restores the tombstone exactly.
	s = openDurable(t, dir, wal.FsyncNever)
	must(s.Insert("docs", document.New("a", nil)))
	if v := mustVersion(t, s, "docs", "a"); v != 4 {
		t.Errorf("after wal replay: a re-created at v%d, want v4", v)
	}
	must(s.Delete("docs", "a")) // tombstone v5
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// The snapshot truncated the delete record; its floor stands in.
	s = openDurable(t, dir, wal.FsyncNever)
	defer s.Close()
	must(s.Insert("docs", document.New("a", nil)))
	if v := mustVersion(t, s, "docs", "a"); v <= 5 {
		t.Errorf("after snapshot restart: a re-created at v%d, want > 5", v)
	}
	must(s.Delete("docs", "a"))
	tomb := tombstoneOf(t, s, "docs", "a")

	// Replica bootstrap: the exported meta carries the floor.
	var buf bytes.Buffer
	if _, _, err := s.ExportSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := MustOpen(nil)
	defer r.Close()
	if _, err := r.ImportSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Replication stream: a put and a delete applied as recorded.
	seq := r.LastSeq()
	if _, err := r.ApplyReplicated([]wal.Record{
		{Kind: wal.KindPut, Seq: seq + 1, Table: "docs", Doc: &document.Document{ID: "x", Version: 40}},
		{Kind: wal.KindDelete, Seq: seq + 2, Table: "docs", ID: "x", Version: 41},
	}); err != nil {
		t.Fatal(err)
	}
	// Promoted: the former replica assigns versions itself.
	must(r.Insert("docs", document.New("a", nil)))
	if v := mustVersion(t, r, "docs", "a"); v <= tomb {
		t.Errorf("promoted replica re-created a at v%d, want > %d (the primary's tombstone)", v, tomb)
	}
	must(r.Insert("docs", document.New("x", nil)))
	if v := mustVersion(t, r, "docs", "x"); v != 42 {
		t.Errorf("promoted replica re-created x at v%d, want v42", v)
	}
}

// tombstoneOf returns the tombstone version of a deleted id as the store
// remembers it (floor included).
func tombstoneOf(t *testing.T, s *Store, table, id string) int64 {
	t.Helper()
	tb, err := s.table(table)
	if err != nil {
		t.Fatal(err)
	}
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return max(tb.verFloor, tb.tombs[id])
}

// TestTombstonesAreBounded: id churn must not grow the store. Past
// maxTombstones per table the tombstones fold into the table's floor —
// the exact continuation becomes a jump, and versions still never repeat.
// The bound is what 16 lock stripes of 4 096 held before a table became
// one lock: no table folds earlier than it used to.
func TestTombstonesAreBounded(t *testing.T) {
	if maxTombstones != 65536 {
		t.Fatalf("maxTombstones = %d, want 65536 per table", maxTombstones)
	}
	s := MustOpen(nil)
	defer s.Close()
	if err := s.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	churn := func(id string) {
		t.Helper()
		if err := s.Insert("docs", document.New(id, nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update("docs", id, UpdateSpec{Set: map[string]any{"n": 1}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("docs", id); err != nil {
			t.Fatal(err)
		}
	}
	churn("first") // v1, v2, tombstone v3
	for i := 0; i < maxTombstones+10; i++ {
		churn(fmt.Sprintf("k%05d", i))
	}
	tb, _ := s.table("docs")
	tb.mu.RLock()
	held, floor := len(tb.tombs), tb.verFloor
	tb.mu.RUnlock()
	if held > maxTombstones {
		t.Errorf("table holds %d tombstones, bound is %d", held, maxTombstones)
	}
	if floor < 3 {
		t.Errorf("floor = %d: the folded tombstones (v3) are forgotten", floor)
	}
	if err := s.Insert("docs", document.New("first", nil)); err != nil {
		t.Fatal(err)
	}
	if v := mustVersion(t, s, "docs", "first"); v <= 3 {
		t.Errorf("first re-created at v%d after its tombstone (v3) was folded, want > 3", v)
	}
}
