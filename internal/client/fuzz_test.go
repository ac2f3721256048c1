package client

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"quaestor/internal/ebf"
	"quaestor/internal/server"
)

// encodeEBFResponse renders a snapshot the way /v1/ebf does.
func encodeEBFResponse(t testing.TB, snap ebf.Snapshot) []byte {
	t.Helper()
	resp := server.EBFResponse{
		Filter:      base64.StdEncoding.EncodeToString(snap.Filter.Marshal()),
		GeneratedAt: snap.GeneratedAt.UnixNano(),
		Entries:     snap.Entries,
		Epoch:       snap.At.Epoch,
		Cursor:      snap.At.Cursor,
	}
	if snap.Covered {
		var raw []byte
		for _, fp := range snap.Recent {
			raw = binary.LittleEndian.AppendUint64(raw, fp)
		}
		recent := base64.StdEncoding.EncodeToString(raw)
		resp.Recent = &recent
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// FuzzDecodeEBFResponse feeds the SDK's /v1/ebf decoder arbitrary bodies —
// the one wire input it takes from whatever answers at the origin's
// address. It must never panic; a "recent" that is not base64 of whole
// 8-byte fingerprints is an error, never a covered snapshot; nothing is
// covered for a poll that sent no position or another epoch's; and what
// decodes re-encodes to a body that decodes to the same snapshot.
func FuzzDecodeEBFResponse(f *testing.F) {
	// A 128-byte filter keeps the seed bodies, and with them the fuzzer's
	// mutations and minimizations, small.
	w := newWireWith(f, server.Options{EBF: &ebf.Options{Bits: 1 << 10}})
	for i := 0; i < 40; i++ {
		for _, table := range []string{"posts", "users"} {
			id := strconv.Itoa(i)
			w.insert(f, table, id)
			if _, err := w.srv.Read(table, id); err != nil {
				f.Fatal(err)
			}
			if i%2 == 0 {
				w.update(f, table, id, 1)
			}
		}
	}
	at := w.srv.EBFSnapshot().At
	for _, target := range []string{
		"/v1/ebf",
		"/v1/ebf?table=posts",
		"/v1/ebf?epoch=" + strconv.FormatUint(at.Epoch, 10) + "&since=" + strconv.FormatUint(at.Cursor-7, 10),
		"/v1/ebf?epoch=" + strconv.FormatUint(at.Epoch, 10) + "&since=" + strconv.FormatUint(at.Cursor, 10),
	} {
		resp, err := w.ts.Client().Get(w.ts.URL + target)
		if err != nil {
			f.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{body.Len(), body.Len() - 3, body.Len() / 2, 12} {
			f.Add(body.Bytes()[:cut])
		}
	}
	f.Add([]byte(`{"filter":"","epoch":1,"cursor":2,"recent":"AAAA"}`))
	// A filter of 2³²−1 bits and no words (bloom.Unmarshal took it once).
	f.Add([]byte(`{"filter":"` + base64.StdEncoding.EncodeToString([]byte("QBF1\xff\xff\xff\xff\x04\x00\x00\x00\x00\x00\x00\x00")) + `"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		unpositioned, err := decodeEBFResponse(bytes.NewReader(body), ebf.Position{})
		if err != nil {
			return
		}
		if unpositioned.Covered {
			t.Fatal("a poll that sent no position decoded as covered")
		}
		unpositioned.Contains("posts/1") // whatever decodes can be used
		if other, err := decodeEBFResponse(bytes.NewReader(body), ebf.Position{Epoch: unpositioned.At.Epoch + 1}); err != nil || other.Covered {
			t.Fatalf("a poll positioned in another epoch: covered %v, %v", other.Covered, err)
		}
		since := ebf.Position{Epoch: unpositioned.At.Epoch, Cursor: 7}
		snap, err := decodeEBFResponse(bytes.NewReader(body), since)
		if err != nil {
			t.Fatalf("the position sent changed whether the body decodes: %v", err)
		}

		// What the body says, read independently of the decoder.
		var said struct {
			Recent *string `json:"recent"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&said); err != nil {
			t.Fatalf("decoded a body that is not JSON: %v", err)
		}
		if said.Recent != nil {
			if raw, err := base64.StdEncoding.DecodeString(*said.Recent); err != nil || len(raw)%8 != 0 {
				t.Fatalf("decoded a body whose recent is %d bytes of base64 (%v)", len(raw), err)
			}
		}
		if want := said.Recent != nil && since.Epoch != 0; snap.Covered != want || (snap.Covered && snap.Since != since.Cursor) {
			t.Fatalf("covered = %v since %d, want %v since %d", snap.Covered, snap.Since, want, since.Cursor)
		}

		again, err := decodeEBFResponse(bytes.NewReader(encodeEBFResponse(t, snap)), since)
		if err != nil {
			t.Fatalf("the re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(again.Filter.Marshal(), snap.Filter.Marshal()) {
			t.Fatal("the filter changed over a re-encoding")
		}
		again.Filter, snap.Filter = nil, nil
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("the snapshot changed over a re-encoding:\n%+v\n%+v", snap, again)
		}
	})
}
