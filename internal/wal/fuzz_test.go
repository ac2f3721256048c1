package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

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
// scans back as the same record. Seeded from the torn-tail tests, a put
// frame in the pre-PR-16 layout ("seq" first) so segments written before
// Seq moved to the end of the payload keep recovering, and a header that
// claims far more bytes than follow.
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
// stream — the frame iterator segment export uses, the record scanner
// replicas catch up through, the snapshot decoder a replica bootstraps
// from — reports the short frame as torn without allocating what the
// header claimed.
func TestFrameHeaderDoesNotSetAllocation(t *testing.T) {
	readers := map[string]func([]byte) error{
		"FrameReader": func(b []byte) error {
			_, err := NewFrameReader(bytes.NewReader(b)).Next()
			return err
		},
		"ScanReader": func(b []byte) error {
			return ScanReader(bytes.NewReader(b), func(*Record) error { return nil })
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
