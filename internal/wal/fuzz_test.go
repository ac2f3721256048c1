package wal

import (
	"bytes"
	"testing"
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
// scans back as the same record. Seeded from the torn-tail tests, plus a
// put frame in the pre-PR-16 layout ("seq" first) so segments written
// before Seq moved to the end of the payload keep recovering.
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
