package document

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// decodeStored decodes data as the server decodes a stored document: by
// DocumentText, with nothing but whitespace after it.
func decodeStored(data []byte) (*Document, error) {
	var doc Document
	dec := NewDecoder(data)
	err := dec.DocumentText(&doc)
	if err == nil {
		err = dec.End()
	}
	return &doc, err
}

// FuzzDecodeStoredDocument: the stored-document path against the same
// encoding/json reference FuzzDecodeDocument holds the decoder to. Both
// accept or both refuse; when they accept, the documents agree on ID and
// Version, every top-level field a path names and the body are DeepEqual,
// an index reads the same keys off the text as off the decoded value,
// Holds judges equality and membership the same off the text,
// the clone is equal, and the wire forms — before sealing, after, and
// copied — are the same bytes. Once the wire form replaced the text, Get
// and the index keys agree with its decode, before and after the body is
// decoded.
func FuzzDecodeStoredDocument(f *testing.F) {
	g := &jsonGen{r: rand.New(rand.NewSource(13))}
	for i := 0; i < 64; i++ {
		if data, err := legacyMarshal(g.document()); err == nil {
			f.Add(data)
		}
	}
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	for _, s := range canonSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := decodeStored(data)
		want, wantErr := legacyUnmarshal(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: stored err = %v, reference err = %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.ID != want.ID || got.Version != want.Version {
			t.Fatalf("%q: got %q v%d, want %q v%d", data, got.ID, got.Version, want.ID, want.Version)
		}
		fieldsAgree := func(state string, want *Document) {
			for k, v := range want.Fields {
				if k == "" || strings.Contains(k, ".") {
					continue // not a path to this field
				}
				if gv, ok := got.Get(k); !ok || !reflect.DeepEqual(gv, v) {
					t.Fatalf("%q %s: Get(%q) = %#v, %v; want %#v", data, state, k, gv, ok, v)
				}
				probes := []any{v, nil, "x", int64(1), []any{}}
				if arr, isArr := v.([]any); isArr {
					probes = append(probes, arr...)
				}
				for _, probe := range probes {
					gf, gEq, gEl := got.Holds(k, probe)
					wf, wEq, wEl := want.Holds(k, probe)
					if gf != wf || gEq != wEq || gEl != wEl {
						t.Fatalf("%q %s: Holds(%q, %#v) = %v %v %v; want %v %v %v", data, state, k, probe, gf, gEq, gEl, wf, wEq, wEl)
					}
				}
				gk, ge, gElems, gok := got.IndexKeys(k, nil, nil)
				wk, we, wElems, wok := want.IndexKeys(k, nil, nil)
				if !bytes.Equal(gk, wk) || !slices.Equal(ge, we) || gElems != wElems || gok != wok {
					t.Fatalf("%q %s: IndexKeys(%q) = %q %v %v %v; want %q %v %v %v", data, state, k, gk, ge, gElems, gok, wk, we, wElems, wok)
				}
			}
		}
		fieldsAgree("as decoded", want)
		wb, werr := want.AppendJSON(nil)
		for _, step := range []string{"unsealed", "sealed", "copied"} {
			if step == "sealed" {
				got.Seal()
			}
			gb, gerr := got.AppendJSON(nil)
			if gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
				t.Fatalf("%q %s: encodings differ (%v, %v)\n got %s\nwant %s", data, step, gerr, werr, gb, wb)
			}
		}
		// The wire form replaced the text, so the fields are its decode
		// now: 1.0 is written 1 and decodes to an int64, as after a
		// round trip through the WAL.
		wire, err := legacyUnmarshal(wb)
		if err != nil {
			t.Fatalf("%q: the wire form %s does not decode: %v", data, wb, err)
		}
		fieldsAgree("in wire form", wire)
		if !got.Clone().Equal(want) {
			t.Fatalf("%q: clone %#v, want %#v", data, got.Clone().Fields, want.Fields)
		}
		if !DeepEqual(got.Body(), want.Fields) {
			t.Fatalf("%q: body %#v, want %#v", data, got.Body(), want.Fields)
		}
		fieldsAgree("with its body decoded", wire)
		fresh, _ := decodeStored(data)
		if body := fresh.Body(); !reflect.DeepEqual(body, want.Fields) {
			t.Fatalf("%q: body before encoding %#v, want %#v", data, body, want.Fields)
		}
	})
}

// canonSeeds are texts at the edges of the wire form: in it, in it but
// for "_id" or "_version", or one escape, number or key order away.
func canonSeeds() []string {
	return []string{
		`{"_id":"a","_version":1}`, `{"_id":"a","_version":1,"b":2}`, `{"A":1,"_id":"a","_version":1}`,
		`{"_id":"b","_version":7,"x":"y"}`, `{"_version":1,"_id":"a"}`, `{"_id":5,"_version":"v"}`,
		`{"_id":"a","_version":1,"b":2,"a":1}`, `{"_id":"a","_version":1,"a":1,"a":2}`, `{"_id":"a","_version":1,"a":{"d":1,"c":2}}`,
		`{"_id":"a","_version":1,"s":"<>&"}`, `{"_id":"a","_version":1,"s":"\u003c\u003e\u0026"}`, `{"_id":"a","_version":1,"s":"\u003C"}`,
		`{"_id":"a","_version":1,"s":"\n\t\r\b\f\"\\"}`, `{"_id":"a","_version":1,"s":"\u000a"}`, `{"_id":"a","_version":1,"s":"\u0001\u001f"}`,
		`{"_id":"a","_version":1,"s":"\/"}`, `{"_id":"a","_version":1,"s":"\u2028\u2029"}`, "{\"_id\":\"a\",\"_version\":1,\"s\":\"\u2028\"}",
		`{"_id":"a","_version":1,"s":"\ufffd"}`, "{\"_id\":\"a\",\"_version\":1,\"s\":\"\xff\"}", `{"_id":"a","_version":1,"s":"é\u00e9"}`,
		`{"_id":"a","_version":1,"n":1.5}`, `{"_id":"a","_version":1,"n":1.0}`, `{"_id":"a","_version":1,"n":1e21}`, `{"_id":"a","_version":1,"n":1e+21}`,
		`{"_id":"a","_version":1,"n":1e-7}`, `{"_id":"a","_version":1,"n":-0}`, `{"_id":"a","_version":1,"n":100000000000000000000}`,
		`{"_id":"a","_version":1,"n":9223372036854775808}`, `{"_id":"a","_version":1,"a":[],"o":{}}`, `{"_id":"a","_version":1,"a":[1,{"b":[null,true,false]}]}`,
		`{"_id":"a", "_version":1}`, `{"_id":"<","_version":1}`, `{"_id":"a","_version":01}`, `{"_id":"a","_version":1}`,
		`{"_id":"a","_version":1,"a\"b":1}`, `{"_id":"a","_version":1,"a.b":{"0":1}}`,
	}
}

// TestStoredDocumentLookup: a path read from a text document finds what
// GetPath finds in its decoded fields — the last duplicate, array
// elements, nested objects — and never "_id" or "_version".
func TestStoredDocumentLookup(t *testing.T) {
	data := []byte(`{"_id":"d","_version":3,"a":{"b":[10,{"c":"x"}]},"a":{"b":[1,{"c":"y"}],"e":null},"t":["p","q"],"n":-0}`)
	ref, err := legacyUnmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"a", "a.b", "a.b.0", "a.b.1", "a.b.1.c", "a.b.2", "a.b.-1", "a.b.x", "a.e", "a.e.f", "t", "t.1", "n", "_id", "_version", "a._id", "missing", "t.01", "a.b.+1"} {
		doc, err := decodeStored(data)
		if err != nil {
			t.Fatal(err)
		}
		before := TextDecodes()
		got, gotOK := doc.Get(path)
		want, wantOK := GetPath(ref.Fields, path)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("Get(%q) = %#v, %v; want %#v, %v", path, got, gotOK, want, wantOK)
		}
		if TextDecodes() != before {
			t.Errorf("Get(%q) decoded the body", path)
		}
	}
}

// TestStoredDocumentWireFormIsItsText: a text already in wire form
// becomes the document's wire form without a copy or a decode; one that
// differs only in "_version" is spliced, and one out of key order is
// decoded and encoded.
func TestStoredDocumentWireFormIsItsText(t *testing.T) {
	for _, tc := range []struct {
		in      string
		version int64
		want    string
		same    bool
		decodes int64
	}{
		{`{"_id":"a","_version":1,"tags":["x"]}`, 1, `{"_id":"a","_version":1,"tags":["x"]}`, true, 0},
		{`{"_id":"a","_version":1,"tags":["x"]}`, 4, `{"_id":"a","_version":4,"tags":["x"]}`, false, 0},
		{`{"tags":["x"]}`, 2, `{"_id":"a","_version":2,"tags":["x"]}`, false, 1},
		{`{"_id":"a","_version":1,"z":1,"b":2}`, 1, `{"_id":"a","_version":1,"b":2,"z":1}`, false, 1},
	} {
		doc, err := decodeStored([]byte(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		doc.ID, doc.Version = "a", tc.version
		doc.Seal()
		text := doc.textForm().bytes
		before := TextDecodes()
		got, err := doc.AppendJSON(nil)
		if err != nil || string(got) != tc.want {
			t.Errorf("%s: AppendJSON = %s, %v; want %s", tc.in, got, err, tc.want)
		}
		if n := TextDecodes() - before; n != tc.decodes {
			t.Errorf("%s: %d decodes, want %d", tc.in, n, tc.decodes)
		}
		w := doc.textForm()
		if w.raw || string(w.bytes) != tc.want || (&w.bytes[0] == &text[0]) != tc.same {
			t.Errorf("%s: wire form %s raw=%v, shares the text: %v, want %v", tc.in, w.bytes, w.raw, &w.bytes[0] == &text[0], tc.same)
		}
		if again, _ := doc.AppendJSON(nil); string(again) != tc.want {
			t.Errorf("%s: second AppendJSON = %s", tc.in, again)
		}
	}
}

// TestUnsealedStoredDocumentIsEncodedAfresh: until the store seals it, a
// text document's ID and Version may change, so its wire form is not
// kept.
func TestUnsealedStoredDocumentIsEncodedAfresh(t *testing.T) {
	doc, err := decodeStored([]byte(`{"_id":"a","_version":1,"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := doc.AppendJSON(nil); string(b) != `{"_id":"a","_version":1,"x":1}` {
		t.Fatalf("first = %s", b)
	}
	doc.ID, doc.Version = "b", 2
	if b, _ := doc.AppendJSON(nil); string(b) != `{"_id":"b","_version":2,"x":1}` {
		t.Fatalf("after renaming = %s", b)
	}
}

// TestStoredDocumentWritesOwnACopy: Set and Delete on a text document
// its writer owns turn it into a document with Fields, leaving any
// document that shares its text alone.
func TestStoredDocumentWritesOwnACopy(t *testing.T) {
	doc, err := decodeStored([]byte(`{"a":{"b":1},"c":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	clone := doc.Clone()
	if err := doc.Set("a.b", 2); err != nil {
		t.Fatal(err)
	}
	doc.Delete("c")
	if doc.textForm() != nil || !reflect.DeepEqual(doc.Fields, map[string]any{"a": map[string]any{"b": int64(2)}}) {
		t.Fatalf("after writes: text=%v fields %#v", doc.textForm() != nil, doc.Fields)
	}
	if !reflect.DeepEqual(clone.Fields, map[string]any{"a": map[string]any{"b": int64(1)}, "c": []any{int64(1), int64(2)}}) {
		t.Fatalf("clone changed: %#v", clone.Fields)
	}
}

// TestStoredDocumentFirstReadsRace: many goroutines read one sealed text
// document for the first time at once — its body, its wire form, a path
// — and all see the same fields and the same bytes. Each Body is a
// decode of its own. Run under -race.
func TestStoredDocumentFirstReadsRace(t *testing.T) {
	const readers = 16
	text := `{"_id":"r","_version":1,"tags":["a","b"],"n":{"m":[1,2.5,"s"]},"title":"t <&>"}`
	want, err := legacyUnmarshal([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	wantWire, _ := want.AppendJSON(nil)
	for round := 0; round < 50; round++ {
		doc, err := decodeStored([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		doc.Seal()
		var wg sync.WaitGroup
		bodies := make([]map[string]any, readers)
		start := make(chan struct{})
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				switch r % 3 {
				case 0:
					bodies[r] = doc.Body()
				case 1:
					if b, err := doc.AppendJSON(nil); err != nil || !bytes.Equal(b, wantWire) {
						t.Errorf("AppendJSON = %s, %v", b, err)
					}
				case 2:
					if v, ok := doc.Get("n.m.1"); !ok || v != 2.5 {
						t.Errorf("Get = %v, %v", v, ok)
					}
					if v, ok := doc.Get("tags"); !ok || !slices.Equal(v.([]any), []any{"a", "b"}) {
						t.Errorf("Get(tags) = %v, %v", v, ok)
					}
				}
			}(r)
		}
		close(start)
		wg.Wait()
		for r := 0; r < readers; r += 3 {
			if !DeepEqual(bodies[r], want.Fields) {
				t.Fatalf("round %d: reader %d got body %#v, want %#v", round, r, bodies[r], want.Fields)
			}
		}
		if b, _ := doc.AppendJSON(nil); !bytes.Equal(b, wantWire) {
			t.Fatalf("wire form %s, want %s", b, wantWire)
		}
	}
}

// TestScanRefusesWhatDecodeRefuses: Skip and Raw build nothing, yet
// refuse exactly the values Value refuses, bar the numbers out of range
// that encoding/json lets a skipped field hold; the scan DocumentText
// runs counts such a number exactly when Value refuses one.
func TestScanRefusesWhatDecodeRefuses(t *testing.T) {
	for _, s := range decodeSeeds() {
		dec := NewDecoder([]byte(s))
		_, verr := dec.Value()
		skip := NewDecoder([]byte(s))
		serr := skip.Skip()
		outOfRange := verr != nil && strings.Contains(verr.Error(), "out of range")
		if verr == nil && serr != nil || verr != nil && serr == nil && !outOfRange {
			t.Errorf("%q: Value err = %v, Skip err = %v", s, verr, serr)
		}
		if verr == nil && serr == nil && dec.off != skip.off {
			t.Errorf("%q: Value stopped at %d, Skip at %d", s, dec.off, skip.off)
		}
		counting := NewDecoder([]byte(s))
		if counting.scan(true) == nil && (counting.bad > 0) != outOfRange {
			t.Errorf("%q: the scan counted %d numbers out of range; Value err = %v", s, counting.bad, verr)
		}
	}
}

// TestHoldsReadsTextWithoutAllocating: the equality-like predicates'
// question, asked of a text document, compares match keys read off the
// text: no decode, no allocation.
func TestHoldsReadsTextWithoutAllocating(t *testing.T) {
	doc, err := decodeStored([]byte(`{"_id":"h","_version":1,"n":7,"o":{"p":"q"},"tags":["a","b"]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path                  string
		v                     any
		found, equal, element bool
	}{
		{"tags", "b", true, false, true},
		{"tags", "c", true, false, false},
		{"tags", []any{"a", "b"}, true, true, false},
		{"n", 7.0, true, true, false},
		{"o.p", "q", true, true, false},
		{"missing", "a", false, false, false},
	} {
		before := TextDecodes()
		allocs := testing.AllocsPerRun(100, func() {
			found, equal, element := doc.Holds(tc.path, tc.v)
			if found != tc.found || equal != tc.equal || element != tc.element {
				t.Fatalf("Holds(%q, %#v) = %v %v %v, want %v %v %v", tc.path, tc.v, found, equal, element, tc.found, tc.equal, tc.element)
			}
		})
		if allocs != 0 || TextDecodes() != before {
			t.Errorf("Holds(%q, %#v): %v allocations, %d decodes; want none", tc.path, tc.v, allocs, TextDecodes()-before)
		}
	}
}
