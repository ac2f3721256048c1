package store

// Tests for the double-buffered snapshot import: a mid-stream failure
// must leave the pre-import state byte-identical (reads, indexes,
// LastSeq), concurrent readers must observe either the complete old or
// the complete new state — never a mix — and the post-swap diff must be
// published as floor-sequenced synthetic events.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"quaestor/internal/commitlog"
	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/wal"
)

// dumpStore renders a store's full logical state — tables, secondary
// index definitions, and every document with its version — as one
// canonical string for byte-identical comparison.
func dumpStore(t *testing.T, s *Store) string {
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
		byID := map[string]string{}
		ids := make([]string, 0, len(docs))
		for _, d := range docs {
			v, _ := d.Get("v")
			byID[d.ID] = fmt.Sprintf("  %s ver=%d v=%v\n", d.ID, d.Version, v)
			ids = append(ids, d.ID)
		}
		sortStrings(ids)
		for _, id := range ids {
			sb.WriteString(byID[id])
		}
	}
	return sb.String()
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// seedTarget fills a store with k000..k{n-1} (v=1) on "docs" with an
// index on v, plus a local-only table.
func seedTarget(t *testing.T, s *Store, n int) {
	t.Helper()
	if err := s.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("docs", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put("docs", document.New(fmt.Sprintf("k%03d", i), map[string]any{"v": int64(i)})); err != nil {
			t.Fatal(err)
		}
	}
}

// exportFrom builds a source store whose floor exceeds targetSeq and
// returns its exported snapshot bytes: k000..k099 re-versioned to
// version 2 (v=2), k100.. absent (deleted inside the collapsed range),
// n000..n049 new.
func exportFrom(t *testing.T, targetSeq uint64) []byte {
	t.Helper()
	src := MustOpen(nil)
	defer src.Close()
	if err := src.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 100; i++ {
			if err := src.Put("docs", document.New(fmt.Sprintf("k%03d", i), map[string]any{"v": int64(i)})); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		if err := src.Put("docs", document.New(fmt.Sprintf("n%03d", i), map[string]any{"v": int64(1000 + i)})); err != nil {
			t.Fatal(err)
		}
	}
	// A delete+recreate lineage break: the target holds "sv" at version 1
	// with different content — same version, so only a content comparison
	// can tell them apart.
	if err := src.Put("docs", document.New("sv", map[string]any{"v": int64(-2)})); err != nil {
		t.Fatal(err)
	}
	// Pad the floor past the target's sequence so the import is not stale.
	for src.LastSeq() <= targetSeq {
		if err := src.Put("docs", document.New("n000", map[string]any{"v": int64(1000)})); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, _, err := src.ExportSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type failingReader struct{ r io.Reader }

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		return n, errors.New("injected transfer failure")
	}
	return n, err
}

// TestImportSnapshotMidStreamFailureLeavesStateIntact injects truncated
// and erroring snapshot streams mid-transfer and asserts the replica's
// pre-import state — documents, indexes, LastSeq — is byte-identical to
// before the attempt. Durable targets must also recover the old state
// from disk afterwards.
func TestImportSnapshotMidStreamFailureLeavesStateIntact(t *testing.T) {
	for _, mode := range []string{"memory", "durable"} {
		t.Run(mode, func(t *testing.T) {
			var dir string
			var s *Store
			if mode == "durable" {
				dir = t.TempDir()
				var err error
				s, err = Open(&Options{DataDir: dir, Durability: Durability{Fsync: wal.FsyncNever}})
				if err != nil {
					t.Fatal(err)
				}
			} else {
				s = MustOpen(nil)
				defer s.Close()
			}
			seedTarget(t, s, 150)
			before := dumpStore(t, s)
			beforeSeq := s.LastSeq()
			snap := exportFrom(t, beforeSeq)

			// Truncations at several offsets: before the meta frame
			// completes, mid-docs, and with only the end frame cut.
			cuts := []int{4, len(snap) / 10, len(snap) / 2, len(snap) - 5}
			for _, cut := range cuts {
				if _, err := s.ImportSnapshot(bytes.NewReader(snap[:cut])); err == nil {
					t.Fatalf("import of stream truncated at %d/%d bytes succeeded", cut, len(snap))
				}
			}
			// A reader that errors mid-transfer.
			if _, err := s.ImportSnapshot(&failingReader{r: bytes.NewReader(snap[:len(snap)/2])}); err == nil {
				t.Fatal("import from erroring reader succeeded")
			}
			// A stale snapshot (floor below the store's sequence).
			staleSrc := MustOpen(nil)
			if err := staleSrc.CreateTable("docs"); err != nil {
				t.Fatal(err)
			}
			if err := staleSrc.Put("docs", document.New("s1", nil)); err != nil {
				t.Fatal(err)
			}
			var staleBuf bytes.Buffer
			if _, _, err := staleSrc.ExportSnapshot(&staleBuf); err != nil {
				t.Fatal(err)
			}
			staleSrc.Close()
			if _, err := s.ImportSnapshot(bytes.NewReader(staleBuf.Bytes())); !errors.Is(err, ErrSnapshotStale) {
				t.Fatalf("stale import: err = %v, want ErrSnapshotStale", err)
			}

			if got := dumpStore(t, s); got != before {
				t.Errorf("state changed after failed imports:\n--- before ---\n%s--- after ---\n%s", before, got)
			}
			if got := s.LastSeq(); got != beforeSeq {
				t.Errorf("LastSeq changed after failed imports: %d, want %d", got, beforeSeq)
			}
			// The secondary index still serves the old state through the
			// planner.
			q := query.New("docs", query.Eq("v", int64(7)))
			docs, plan, err := s.QueryPlanned(q)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Kind != query.PlanProbe {
				t.Errorf("post-failure plan = %v, want probe", plan.Kind)
			}
			if len(docs) != 1 || docs[0].ID != "k007" {
				t.Errorf("post-failure indexed query returned %v, want [k007]", docs)
			}

			if mode == "durable" {
				// The on-disk state must be untouched too: a restart
				// recovers the pre-import state.
				s.Close()
				s2, err := Open(&Options{DataDir: dir, Durability: Durability{Fsync: wal.FsyncNever}})
				if err != nil {
					t.Fatal(err)
				}
				defer s2.Close()
				if got := dumpStore(t, s2); got != before {
					t.Errorf("recovered state differs after failed imports:\n--- before ---\n%s--- after ---\n%s", before, got)
				}
			}
		})
	}
}

// TestImportSnapshotAtomicSwapAndSyntheticEvents drives a successful
// re-import with concurrent readers asserting all-or-nothing visibility,
// and verifies the post-swap diff is published as floor-sequenced
// synthetic events: deletes for vanished documents, puts for
// re-versioned and new ones. Local-only index definitions and tables
// must survive the swap.
func TestImportSnapshotAtomicSwapAndSyntheticEvents(t *testing.T) {
	s := MustOpen(nil)
	defer s.Close()
	seedTarget(t, s, 150)
	// Local-only definitions: an extra index and an extra table the
	// snapshot does not carry.
	if err := s.CreateIndex("docs", "w"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("local_only"); err != nil {
		t.Fatal(err)
	}
	// "sv" exists on both sides at version 1 but with different content
	// (the source deleted and re-created it): the diff must catch it by
	// content, not version.
	if err := s.Put("docs", document.New("sv", map[string]any{"v": int64(-1)})); err != nil {
		t.Fatal(err)
	}
	snap := exportFrom(t, s.LastSeq())

	// The two legal read results (id → version over "docs").
	oldSet := map[string]int64{"sv": 1}
	for i := 0; i < 150; i++ {
		oldSet[fmt.Sprintf("k%03d", i)] = 1
	}
	newSet := map[string]int64{"sv": 1}
	for i := 0; i < 100; i++ {
		newSet[fmt.Sprintf("k%03d", i)] = 2 // written twice on the source
	}
	for i := 0; i < 50; i++ {
		newSet[fmt.Sprintf("n%03d", i)] = 1 // created inside the collapsed range
	}
	// n000 was re-put while padding the floor; its version is higher.
	readSet := func() map[string]int64 {
		docs, err := s.ScanQuery(query.New("docs", nil))
		if err != nil {
			t.Error(err)
			return nil
		}
		m := make(map[string]int64, len(docs))
		for _, d := range docs {
			m[d.ID] = d.Version
		}
		return m
	}
	matches := func(got, want map[string]int64) bool {
		if len(got) != len(want) {
			return false
		}
		for id, v := range got {
			wv, ok := want[id]
			if !ok {
				return false
			}
			if v != wv && id != "n000" { // n000's version depends on floor padding
				return false
			}
		}
		return true
	}

	events, cancel := s.SubscribeNamed("import-check")
	defer cancel()

	var mu sync.Mutex
	var mixed []string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := readSet()
				if got == nil {
					return
				}
				if !matches(got, oldSet) && !matches(got, newSet) {
					mu.Lock()
					if len(mixed) < 3 {
						mixed = append(mixed, fmt.Sprintf("read observed %d docs, neither old (%d) nor new (%d) state", len(got), len(oldSet), len(newSet)))
					}
					mu.Unlock()
				}
			}
		}()
	}

	info, err := s.ImportSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	// Let the readers overlap the post-swap state too.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	for _, m := range mixed {
		t.Error(m)
	}

	if info.SyntheticDeletes != 50 {
		t.Errorf("SyntheticDeletes = %d, want 50 (k100..k149 vanished)", info.SyntheticDeletes)
	}
	// 100 re-versioned + 50 created + 1 same-version recreate ("sv").
	if info.SyntheticPuts != 151 {
		t.Errorf("SyntheticPuts = %d, want 151", info.SyntheticPuts)
	}
	if got := s.LastSeq(); got != info.Seq {
		t.Errorf("LastSeq = %d, want snapshot floor %d", got, info.Seq)
	}

	// Local definitions survived and were rebuilt over the imported docs.
	paths, err := s.Indexes("docs")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(paths) != "[v w]" {
		t.Errorf("indexes after import = %v, want [v w]", paths)
	}
	found := false
	for _, tbl := range s.Tables() {
		if tbl == "local_only" {
			found = true
		}
	}
	if !found {
		t.Error("local-only table dropped by import")
	}
	docs, plan, err := s.QueryPlanned(query.New("docs", query.Eq("v", int64(1007))))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != query.PlanProbe {
		t.Errorf("post-import plan = %v, want probe (index rebuilt)", plan.Kind)
	}
	if len(docs) != 1 || docs[0].ID != "n007" {
		t.Errorf("post-import indexed query returned %v, want [n007]", docs)
	}

	// Every synthetic event arrives flagged, sequenced at the floor.
	dels, puts := 0, 0
	timeout := time.After(5 * time.Second)
	for dels+puts < 201 {
		select {
		case ev := <-events:
			if !ev.Synthetic {
				t.Fatalf("non-synthetic event on the stream during import: %+v", ev)
			}
			if ev.Seq != info.Seq {
				t.Fatalf("synthetic event seq %d, want floor %d", ev.Seq, info.Seq)
			}
			if ev.Op == OpDelete {
				if !ev.Deleted || ev.After == nil || ev.Before == nil {
					t.Fatalf("malformed synthetic delete: %+v", ev)
				}
				dels++
			} else {
				puts++
			}
		case <-timeout:
			t.Fatalf("synthetic events: got %d deletes + %d puts, want 201 total", dels, puts)
		}
	}
	if dels != 50 || puts != 151 {
		t.Errorf("synthetic events: %d deletes, %d puts; want 50, 151", dels, puts)
	}
	// The import collapsed the range below its floor: an activation
	// evaluated inside it cannot be replayed gaplessly and is refused; one
	// evaluated at the floor already saw the imported state.
	if got, err := s.Replay("docs", info.Seq-1); !errors.Is(err, commitlog.ErrSeqTruncated) {
		t.Errorf("replay after floor-1 = %d events, %v; want ErrSeqTruncated", len(got), err)
	}
	if got, err := s.Replay("docs", info.Seq); got != nil || err != nil {
		t.Errorf("replay after the floor = %d events, %v; want none", len(got), err)
	}
}

// TestImportSnapshotDurableLocalDefsSurviveRestart: on a durable
// replica the import resets the WAL and installs the primary's snapshot
// as the local one, destroying the DDL records that created local-only
// tables and per-node indexes — they must be re-logged so a restart
// still rebuilds them.
func TestImportSnapshotDurableLocalDefsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(&Options{DataDir: dir, Durability: Durability{Fsync: wal.FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	seedTarget(t, s, 50) // includes the "v" index, local-only vs the snapshot
	if err := s.CreateIndex("docs", "w"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("local_only"); err != nil {
		t.Fatal(err)
	}
	snap := exportFrom(t, s.LastSeq()) // snapshot meta carries no indexes
	info, err := s.ImportSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(&Options{DataDir: dir, Durability: Durability{Fsync: wal.FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LastSeq(); got != info.Seq {
		t.Errorf("recovered LastSeq = %d, want floor %d", got, info.Seq)
	}
	paths, err := s2.Indexes("docs")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(paths) != "[v w]" {
		t.Errorf("recovered indexes = %v, want [v w]", paths)
	}
	found := false
	for _, tbl := range s2.Tables() {
		if tbl == "local_only" {
			found = true
		}
	}
	if !found {
		t.Error("local-only table lost across import + restart")
	}
	docs, plan, err := s2.QueryPlanned(query.New("docs", query.Eq("v", int64(1007))))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != query.PlanProbe || len(docs) != 1 {
		t.Errorf("recovered indexed query: plan %v, %d docs; want probe, 1", plan.Kind, len(docs))
	}
}
