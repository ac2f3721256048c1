package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"quaestor/internal/document"
)

// sameRecord compares two decoded records field by field (documents by
// content, id and version).
func sameRecord(a, b *Record) bool {
	if a.Seq != b.Seq || a.Kind != b.Kind || a.Table != b.Table || a.ID != b.ID || a.Version != b.Version || a.Path != b.Path {
		return false
	}
	if a.Doc == nil || b.Doc == nil {
		return a.Doc == b.Doc
	}
	return a.Doc.ID == b.Doc.ID && a.Doc.Version == b.Doc.Version && a.Doc.Equal(b.Doc)
}

// FuzzScanSegment feeds arbitrary bytes to the segment scanner — what
// recovery does with whatever a crash left on disk. It must never panic,
// never claim a valid prefix longer than its input, and every record it
// does return must survive the writer: re-encoded with appendFrame it
// scans back as the same record. Seeded from the torn-tail tests, put
// frames in all three layouts (see TestPutFrameLayoutsReplayTheSame), and
// a header that claims far more bytes than follow.
func FuzzScanSegment(f *testing.F) {
	var seg []byte
	for _, rec := range []Record{
		{Kind: KindCreateTable, Table: "posts"},
		{Kind: KindCreateIndex, Table: "posts", Path: "tags"},
		putRec(1, "posts", "p1", 1),
		{Seq: 2, Kind: KindDelete, Table: "posts", ID: "p1", Version: 2},
		{Seq: 3, Kind: KindCreateIndex, Table: "posts", Path: "rating"},
	} {
		var err error
		if seg, err = appendFrame(seg, &rec); err != nil {
			f.Fatal(err)
		}
	}
	oldLayout := AppendFrame(nil, []byte(`{"seq":7,"kind":"put","table":"posts","doc":{"_id":"p7","_version":3,"n":7}}`))
	for _, rec := range layoutRecords() {
		frame, err := appendFrame(nil, &rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame) // the current put layout: the document as AppendJSON writes it
	}
	for _, frame := range idFirstGoldenFrames {
		f.Add([]byte(frame))
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])                                                                // crash mid-append
	f.Add(append(seg[:len(seg):len(seg)], "\x10\x00\x00\x00garbage-without-valid-crc"...)) // garbage tail
	f.Add(oldLayout)
	f.Add(lyingFrame())
	f.Add([]byte{})

	f.Add([]byte(`{"seq":9,"kind":"put","table":"t","doc":{"_id":"a","_version":1,"x":[1,2.5,"s",null,{"y":true}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkScan(t, data)
		// A checksum stops almost every mutation at the frame boundary, so
		// also hand the scanner the same bytes as a well-framed payload:
		// that is what reaches the record decoder.
		checkScan(t, AppendFrame(nil, data))
	})
}

// lyingFrame is a frame header claiming 200 MiB followed by 1 KiB — what
// a corrupt or cut-short transfer hands a replica.
func lyingFrame() []byte {
	frame := make([]byte, frameHeaderSize+1<<10)
	binary.LittleEndian.PutUint32(frame, 200<<20)
	return frame
}

// TestFrameHeaderDoesNotSetAllocation: the length in a frame header is a
// claim the bytes that follow have to back. Every reader of a framed
// stream — the segment scanner recovery replays the log through, the
// snapshot decoder a replica bootstraps from — reports the short frame
// as torn without allocating what the header claimed.
func TestFrameHeaderDoesNotSetAllocation(t *testing.T) {
	readers := map[string]func([]byte) error{
		"scanFrames": func(b []byte) error {
			_, torn, err := scanFrames(bytes.NewReader(b), func(*Record) error { return nil })
			if err == nil && torn {
				err = ErrTorn
			}
			return err
		},
		"ReadSnapshotStream": func(b []byte) error {
			return ReadSnapshotStream(bytes.NewReader(b),
				func(SnapshotMeta) error { return nil },
				func(string, *document.Document) error { return nil })
		},
	}
	frame := lyingFrame()
	for name, read := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read(frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTorn) {
			t.Errorf("%s: err = %v, want ErrTorn", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
			t.Errorf("%s allocated %d bytes for a 1 KiB frame body", name, alloc)
		}
	}
}

func checkScan(t *testing.T, data []byte) {
	var recs []Record
	validLen, _, err := scanFrames(bytes.NewReader(data), func(r *Record) error {
		recs = append(recs, *r)
		return nil
	})
	if err != nil {
		t.Fatalf("scan error on in-memory input: %v", err)
	}
	if validLen < 0 || validLen > int64(len(data)) {
		t.Fatalf("valid prefix %d of a %d-byte input", validLen, len(data))
	}
	for i := range recs {
		frame, err := appendFrame(nil, &recs[i])
		if err != nil {
			t.Fatalf("record %d does not re-encode: %v (%+v)", i, err, recs[i])
		}
		var back []Record
		n, torn, err := scanFrames(bytes.NewReader(frame), func(r *Record) error {
			back = append(back, *r)
			return nil
		})
		if err != nil || torn || n != int64(len(frame)) || len(back) != 1 {
			t.Fatalf("record %d: re-encoded frame scans as %d records, valid %d/%d, torn=%v, err=%v", i, len(back), n, len(frame), torn, err)
		}
		if !sameRecord(&recs[i], &back[0]) {
			t.Fatalf("record %d changed across re-encoding:\n got %+v (doc %+v)\nwant %+v (doc %+v)", i, back[0], back[0].Doc, recs[i], recs[i].Doc)
		}
	}
}

// TestOldFrameLayoutStillScans pins backward compatibility of the Seq
// splice: a put frame with "seq" as the first key (how every segment was
// written before Seq moved last) decodes to the same record as the new
// layout.
func TestOldFrameLayoutStillScans(t *testing.T) {
	want := putRec(7, "posts", "p7", 3)
	newLayout, err := appendFrame(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	oldLayout := AppendFrame(nil, []byte(`{"seq":7,"kind":"put","table":"posts","doc":{"_id":"p7","_version":3,"n":7}}`))
	if len(oldLayout) != len(newLayout) {
		t.Errorf("frame size changed: old layout %d bytes, new %d", len(oldLayout), len(newLayout))
	}
	for name, frame := range map[string][]byte{"old": oldLayout, "new": newLayout} {
		var got []Record
		if _, torn, err := scanFrames(bytes.NewReader(frame), func(r *Record) error {
			got = append(got, *r)
			return nil
		}); err != nil || torn || len(got) != 1 {
			t.Fatalf("%s layout: %d records, torn=%v, err=%v", name, len(got), torn, err)
		}
		if !sameRecord(&got[0], &want) {
			t.Errorf("%s layout decoded to %+v (doc %+v), want %+v", name, got[0], got[0].Doc, want)
		}
	}
}

// layoutRecords are put records whose documents exercise key order: a
// field sorting before "_id", escapes, nested values, an empty document,
// and a field shadowing "_id", which no layout writes.
func layoutRecords() []Record {
	return []Record{
		{Seq: 7, Kind: KindPut, Table: "posts", Doc: &document.Document{ID: "p7", Version: 3, Fields: map[string]any{
			"Title": "x <y>", "n": int64(7), "f": 2.5, "tags": []any{"a", "b"}, "o": map[string]any{"z": nil, "b": true}}}},
		{Seq: 8, Kind: KindPut, Table: "posts", Doc: &document.Document{ID: "p\"8é", Version: 1, Fields: map[string]any{}}},
		{Seq: 9, Kind: KindPut, Table: "posts", Doc: &document.Document{ID: "p9", Version: 2, Fields: map[string]any{"_id": "shadow", "a": int64(1)}}},
		{Seq: 10, Kind: KindDelete, Table: "posts", ID: "p7", Version: 4},
	}
}

// idFirstGoldenFrames are layoutRecords as the encoder before this layout
// framed them, byte for byte: a put document with "_id" and "_version"
// first, then its fields.
var idFirstGoldenFrames = []string{
	"\x97\x00\x00\x00\xb5%\by{\"kind\":\"put\",\"table\":\"posts\",\"doc\":{\"_id\":\"p7\",\"_version\":3,\"Title\":\"x \\u003cy\\u003e\",\"f\":2.5,\"n\":7,\"o\":{\"b\":true,\"z\":null},\"tags\":[\"a\",\"b\"]},\"seq\":7}",
	"J\x00\x00\x00ςX\xa7{\"kind\":\"put\",\"table\":\"posts\",\"doc\":{\"_id\":\"p\\\"8é\",\"_version\":1},\"seq\":8}",
	"L\x00\x00\x00v\xb2\xbc/{\"kind\":\"put\",\"table\":\"posts\",\"doc\":{\"_id\":\"p9\",\"_version\":2,\"a\":1},\"seq\":9}",
	"@\x00\x00\x00\xc7rb\xac{\"kind\":\"delete\",\"table\":\"posts\",\"id\":\"p7\",\"version\":4,\"seq\":10}",
}

// seqFirst moves a frame's trailing "seq" to the front of its payload:
// the layout segments had before Seq was spliced in last.
func seqFirst(t *testing.T, frame []byte) []byte {
	t.Helper()
	payload := string(frame[frameHeaderSize:])
	i := strings.LastIndex(payload, `,"seq":`)
	if i < 0 {
		t.Fatalf("no seq in %s", payload)
	}
	return AppendFrame(nil, []byte(`{`+payload[i+1:len(payload)-1]+`,`+payload[1:i]+`}`))
}

// TestPutFrameLayoutsReplayTheSame: segments in both earlier put layouts
// ("seq" first; "_id" and "_version" ahead of the fields) replay to the
// records the current encoder writes, and a current frame is exactly as
// long as the one it replaces: only the key order moved.
func TestPutFrameLayoutsReplayTheSame(t *testing.T) {
	want := layoutRecords()
	var current, idFirst, seqFirstSeg []byte
	for i := range want {
		frame, err := appendFrame(nil, &want[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != len(idFirstGoldenFrames[i]) {
			t.Errorf("record %d: frame is %d bytes, %d before", i, len(frame), len(idFirstGoldenFrames[i]))
		}
		current = append(current, frame...)
		idFirst = append(idFirst, idFirstGoldenFrames[i]...)
		seqFirstSeg = append(seqFirstSeg, seqFirst(t, []byte(idFirstGoldenFrames[i]))...)
	}
	delete(want[2].Doc.Fields, "_id") // shadowing: never written
	for name, seg := range map[string][]byte{"current": current, "id-first": idFirst, "seq-first": seqFirstSeg} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		got, res := collect(t, dir)
		if res.TornTail || len(got) != len(want) {
			t.Fatalf("%s layout: %d records (torn %v), want %d", name, len(got), res.TornTail, len(want))
		}
		for i := range want {
			if !sameRecord(&got[i], &want[i]) || got[i].Doc != nil && !reflect.DeepEqual(got[i].Doc.Fields, want[i].Doc.Fields) {
				t.Errorf("%s layout, record %d: %+v (doc %+v), want %+v (doc %+v)", name, i, got[i], got[i].Doc, want[i], want[i].Doc)
			}
		}
	}
}

// snapEvent is one callback of ReadSnapshotStream: a meta or a document.
type snapEvent struct {
	meta  *SnapshotMeta
	table string
	doc   *document.Document
}

func readSnapEvents(data []byte) ([]snapEvent, error) {
	var evs []snapEvent
	err := ReadSnapshotStream(bytes.NewReader(data),
		func(m SnapshotMeta) error { evs = append(evs, snapEvent{meta: &m}); return nil },
		func(table string, doc *document.Document) error {
			evs = append(evs, snapEvent{table: table, doc: doc})
			return nil
		})
	return evs, err
}

func sameMeta(a, b *SnapshotMeta) bool {
	if a.Seq != b.Seq || !a.CreatedAt.Equal(b.CreatedAt) || len(a.Tables) != len(b.Tables) || (a.Tables == nil) != (b.Tables == nil) {
		return false
	}
	for i := range a.Tables {
		ta, tb := a.Tables[i], b.Tables[i]
		if ta.Name != tb.Name || ta.VersionFloor != tb.VersionFloor || !slices.Equal(ta.Indexes, tb.Indexes) {
			return false
		}
	}
	return true
}

// FuzzReadSnapshotStream feeds arbitrary bytes to the snapshot decoder a
// replica bootstraps from. It must never panic, and whatever stream it
// accepts, SnapshotStreamWriter re-encodes to a stream that reads back
// to the same meta and documents. Seeded from the snapshot tests, a
// truncated stream, a header claiming far more bytes than follow, and a
// document frame with escapes and surrogates. A meta frame without its
// meta (found by this target) panicked the reader, and a doc frame
// without its document would have reached the store as nil.
func FuzzReadSnapshotStream(f *testing.F) {
	var stream bytes.Buffer
	w := NewSnapshotStreamWriter(&stream)
	w.Meta(SnapshotMeta{Seq: 42, Tables: []TableMeta{{Name: "posts", Indexes: []string{"author", "tags"}, VersionFloor: 3}}, CreatedAt: time.Unix(1700000000, 5).UTC()})
	w.Doc("posts", document.New("p1", map[string]any{"title": "hello", "n": 1, "f": 2.5}))
	w.Doc("posts", document.New("p2", map[string]any{"tags": []any{"a", "b"}, "o": map[string]any{"x": nil}}))
	w.End()
	full := stream.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-4])
	f.Add(lyingFrame())
	f.Add([]byte{})
	meta := `{"kind":"meta","meta":{"seq":1,"tables":[{"name":"t"}],"createdAt":"2024-01-02T03:04:05+01:00"}}`
	doc := `{"kind":"doc","table":"t","doc":{"_id":"😀 é","s":"\ud800A tab\t \"q\" <","n":-0,"big":12345678901234567890,"a":[1.5e300,true,null]}}`
	end := `{"kind":"end","docs":1}`
	for _, payloads := range [][]string{{meta, doc, end}, {meta, doc}, {doc, meta, end}, {`{"kind":"meta"}`}, {meta, `{"kind":"doc","table":"t"}`, end}} {
		joined := []byte(strings.Join(payloads, "\n"))
		f.Add(frameLines(joined))
		f.Add(joined)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotStream(t, data)
		// A checksum stops almost every mutation at the frame boundary, so
		// also frame each line of the input: that is what reaches the
		// frame decoder.
		checkSnapshotStream(t, frameLines(data))
	})
}

// frameLines frames each newline-separated line of data as one payload.
func frameLines(data []byte) []byte {
	var out []byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		out = AppendFrame(out, line)
	}
	return out
}

func checkSnapshotStream(t *testing.T, data []byte) {
	evs, err := readSnapEvents(data)
	if err != nil {
		return
	}
	var again bytes.Buffer
	w := NewSnapshotStreamWriter(&again)
	for _, ev := range evs {
		if ev.meta != nil {
			err = w.Meta(*ev.meta)
		} else {
			err = w.Doc(ev.table, ev.doc)
		}
		if err != nil {
			t.Fatalf("%q: an accepted stream does not re-encode: %v", data, err)
		}
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	back, err := readSnapEvents(again.Bytes())
	if err != nil || len(back) != len(evs) {
		t.Fatalf("%q: re-encoded stream reads back %d of %d events: %v", data, len(back), len(evs), err)
	}
	for i, ev := range evs {
		b := back[i]
		switch {
		case (ev.meta == nil) != (b.meta == nil):
			t.Fatalf("%q: event %d changed kind", data, i)
		case ev.meta != nil && !sameMeta(ev.meta, b.meta):
			t.Fatalf("%q: meta %+v read back as %+v", data, *ev.meta, *b.meta)
		case ev.meta == nil && (ev.table != b.table || ev.doc.ID != b.doc.ID || ev.doc.Version != b.doc.Version ||
			!reflect.DeepEqual(ev.doc.Fields, b.doc.Fields)):
			t.Fatalf("%q: doc %s/%+v read back as %s/%+v", data, ev.table, ev.doc, b.table, b.doc)
		}
	}
}
