package wal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
)

func openT(t *testing.T, dir string, opts *Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func putRec(seq uint64, table, id string, version int64) Record {
	return Record{Seq: seq, Kind: KindPut, Table: table,
		Doc: &document.Document{ID: id, Version: version, Fields: map[string]any{"n": int64(seq)}}}
}

func collect(t *testing.T, dir string) ([]Record, ScanResult) {
	t.Helper()
	var recs []Record
	res, err := Scan(dir, func(r *Record) error {
		recs = append(recs, *r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return recs, res
}

func TestAppendScanRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	want := []Record{
		{Kind: KindCreateTable, Table: "posts"},
		{Kind: KindCreateIndex, Table: "posts", Path: "tags"},
		putRec(1, "posts", "p1", 1),
		{Seq: 2, Kind: KindDelete, Table: "posts", ID: "p1", Version: 2},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, res := collect(t, dir)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	if res.TornTail || res.LastSeq != 2 || res.Records != 4 {
		t.Errorf("scan result = %+v", res)
	}
	for i, g := range got {
		w := want[i]
		if g.Kind != w.Kind || g.Seq != w.Seq || g.Table != w.Table || g.ID != w.ID || g.Path != w.Path || g.Version != w.Version {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
		if w.Doc != nil && (g.Doc == nil || !g.Doc.Equal(w.Doc) || g.Doc.Version != w.Doc.Version) {
			t.Errorf("record %d doc = %+v, want %+v", i, g.Doc, w.Doc)
		}
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(putRec(1, "t", "a", 1)); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(putRec(seq, "t", "a", int64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the last record.
	seg := filepath.Join(dir, segmentName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	recs, res := collect(t, dir)
	if !res.TornTail {
		t.Error("scan should report a torn tail")
	}
	if len(recs) != 4 || res.LastSeq != 4 {
		t.Fatalf("got %d records (last seq %d), want 4 (last seq 4)", len(recs), res.LastSeq)
	}

	// Reopen: the torn tail is truncated and appends continue cleanly.
	l = openT(t, dir, nil)
	if err := l.Append(putRec(6, "t", "a", 6)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res = collect(t, dir)
	if res.TornTail || len(recs) != 5 || recs[4].Seq != 6 {
		t.Fatalf("after reopen: torn=%v records=%d", res.TornTail, len(recs))
	}
}

func TestGarbageTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	if err := l.Append(putRec(1, "t", "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x10\x00\x00\x00garbage-without-valid-crc")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, res := collect(t, dir)
	if !res.TornTail || len(recs) != 1 {
		t.Fatalf("torn=%v records=%d, want torn with 1 record", res.TornTail, len(recs))
	}
}

func TestSegmentRotationAndRemove(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, &Options{SegmentBytes: 512, Fsync: FsyncNever})
	for seq := uint64(1); seq <= 50; seq++ {
		if err := l.Append(putRec(seq, "t", "a", int64(seq))); err != nil {
			t.Fatal(err)
		}
		// Fire-and-forget policies ack before the write; Sync is the
		// queue barrier that splits the appends into multiple commit
		// batches (rotation is checked per batch) and makes Stats
		// deterministic.
		if seq%10 == 0 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}

	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != st.Segments {
		t.Fatalf("sealed %d segments, want %d", len(sealed), st.Segments)
	}
	if err := l.Remove(sealed); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("segments after remove = %d, want 1", got)
	}
	// Later records live in the new segment and still scan.
	if err := l.Append(putRec(51, "t", "b", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir)
	if len(recs) != 1 || recs[0].Seq != 51 {
		t.Fatalf("after truncation got %d records, want just seq 51", len(recs))
	}
}

func TestRemoveRejectsForeignPaths(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	defer l.Close()
	other := filepath.Join(t.TempDir(), "wal-00000001.seg")
	if err := l.Remove([]string{other}); err == nil {
		t.Fatal("Remove accepted a path outside the log dir")
	}
	if err := l.Remove([]string{filepath.Join(dir, "snapshot.db")}); err == nil {
		t.Fatal("Remove accepted a non-segment file")
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, &Options{Fsync: FsyncAlways})
	const writers, perWriter = 64, 20
	var wg sync.WaitGroup
	var seq uint64
	var seqMu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seqMu.Lock()
				seq++
				s := seq
				seqMu.Unlock()
				if err := l.Append(putRec(s, "t", string(rune('a'+w)), int64(i+1))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*perWriter)
	}
	// Group commit must batch: far fewer fsyncs than appends even under
	// fsync=always.
	if st.Fsyncs >= st.Appends {
		t.Errorf("fsyncs (%d) not batched below appends (%d)", st.Fsyncs, st.Appends)
	}
	if st.MeanBatch <= 1.0 {
		t.Errorf("mean batch size %.2f, expected > 1 with 64 concurrent writers", st.MeanBatch)
	}
	var histTotal uint64
	for _, b := range st.BatchSizes {
		histTotal += b.Count
	}
	if histTotal != st.Batches {
		t.Errorf("batch histogram counts %d batches, stats say %d", histTotal, st.Batches)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, dir)
	if len(recs) != writers*perWriter || res.TornTail {
		t.Fatalf("scan found %d records (torn=%v), want %d", len(recs), res.TornTail, writers*perWriter)
	}
}

func TestFsyncIntervalSyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, &Options{Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond})
	if err := l.Append(putRec(1, "t", "a", 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewSnapshotWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta := SnapshotMeta{Seq: 42, Tables: []TableMeta{{Name: "posts", Indexes: []string{"author", "tags"}}}, CreatedAt: time.Now().UTC()}
	if err := w.Meta(meta); err != nil {
		t.Fatal(err)
	}
	docs := []*document.Document{
		document.New("p1", map[string]any{"title": "hello", "n": 1}),
		document.New("p2", map[string]any{"tags": []any{"a", "b"}}),
	}
	for _, d := range docs {
		if err := w.Doc("posts", d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotName+".tmp")); !os.IsNotExist(err) {
		t.Error("temp snapshot left behind after commit")
	}

	var gotMeta SnapshotMeta
	var got []*document.Document
	loaded, err := LoadSnapshot(dir,
		func(m SnapshotMeta) error { gotMeta = m; return nil },
		func(table string, doc *document.Document) error {
			if table != "posts" {
				t.Errorf("doc table = %q", table)
			}
			got = append(got, doc)
			return nil
		})
	if err != nil || !loaded {
		t.Fatalf("LoadSnapshot: loaded=%v err=%v", loaded, err)
	}
	if gotMeta.Seq != 42 || len(gotMeta.Tables) != 1 || len(gotMeta.Tables[0].Indexes) != 2 {
		t.Errorf("meta = %+v", gotMeta)
	}
	if len(got) != 2 || !got[0].Equal(docs[0]) || !got[1].Equal(docs[1]) {
		t.Errorf("docs did not roundtrip: %+v", got)
	}
}

func TestLoadSnapshotMissing(t *testing.T) {
	loaded, err := LoadSnapshot(t.TempDir(), nil, nil)
	if loaded || err != nil {
		t.Fatalf("loaded=%v err=%v, want no snapshot", loaded, err)
	}
}

func TestLoadSnapshotTruncatedFails(t *testing.T) {
	dir := t.TempDir()
	w, err := NewSnapshotWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Meta(SnapshotMeta{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Doc("t", document.New("a", nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(dir, func(SnapshotMeta) error { return nil }, func(string, *document.Document) error { return nil }); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever, "": FsyncAlways} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Errorf("String() = %q, want %q", got.String(), in)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestEntrySizedFromEncodedLength: a put of a document that holds its
// encoding — a stored text, or a sealed document encoded once — reserves
// the frame's exact size up front, closed sequence number included, so
// encoding the record and closing it grow nothing. A document of unknown
// length still gets the guess.
func TestEntrySizedFromEncodedLength(t *testing.T) {
	l := openT(t, t.TempDir(), &Options{Fsync: FsyncNever})
	defer l.Close()
	text := `{"_id":"p1","_version":1,"body":"lorem ipsum dolor sit amet","tags":["a","b"]}`
	var doc document.Document
	if err := document.NewDecoder([]byte(text)).DocumentText(&doc); err != nil {
		t.Fatal(err)
	}
	doc.Seal()
	rec := Record{Kind: KindPut, Table: "posts", Doc: &doc}
	e, err := l.Prepare(&rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := PutFrameSize("posts", len(text))
	if got := cap(e.req.frames); got != want {
		t.Errorf("entry reserved %d bytes, want %d", got, want)
	}
	if got := len(e.req.frames) + seqSuffixMax; got > want {
		t.Errorf("the closed frame takes up to %d bytes, more than the %d reserved", got, want)
	}
	if got, guess := PutFrameSize("posts", 0), frameHeaderSize+putFrameGuess+seqSuffixMax; got != guess {
		t.Errorf("unknown length sized %d, want the guess %d", got, guess)
	}
	if err := l.Submit(e, 1).Wait(); err != nil {
		t.Fatal(err)
	}
}
