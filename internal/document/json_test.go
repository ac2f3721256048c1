package document

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// legacyMarshal is the encoder AppendJSON replaced: copy the fields into a
// fresh map, add the identity keys, and let encoding/json reflect over it.
// It stays here as the reference the direct encoder must match byte for
// byte.
func legacyMarshal(d *Document) ([]byte, error) {
	body := make(map[string]any, len(d.Fields)+2)
	for k, v := range d.Fields {
		body[k] = v
	}
	body["_id"] = d.ID
	body["_version"] = d.Version
	return json.Marshal(body)
}

// legacyDocument carries the decoder Decoder.Document replaced:
// encoding/json with UseNumber, then a walk converting each json.Number.
// legacyUnmarshal reaches it the way every caller did, through
// encoding/json, which refuses anything but one JSON value first. It stays
// here as the reference the direct decoder must match.
type legacyDocument Document

func legacyUnmarshal(data []byte) (*Document, error) {
	var d legacyDocument
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return (*Document)(&d), nil
}

func (d *legacyDocument) UnmarshalJSON(data []byte) error {
	var body map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&body); err != nil {
		return err
	}
	if id, ok := body["_id"].(string); ok {
		d.ID = id
	}
	if v, ok := body["_version"]; ok {
		switch n := v.(type) {
		case json.Number:
			iv, err := n.Int64()
			if err != nil {
				return fmt.Errorf("document: bad _version %q", n.String())
			}
			d.Version = iv
		case float64:
			d.Version = int64(n)
		}
	}
	delete(body, "_id")
	delete(body, "_version")
	if body == nil { // the input was null
		body = map[string]any{}
	}
	if _, err := legacyFromJSON(body); err != nil {
		return err
	}
	d.Fields = body
	return nil
}

// legacyFromJSON converts a value encoding/json decoded with UseNumber
// into the canonical type set, in place: a number becomes an int64 when it
// is one, else a float64; a number beyond float64's range is refused, and
// a zero float loses its sign.
func legacyFromJSON(v any) (any, error) {
	switch t := v.(type) {
	case json.Number:
		if iv, err := t.Int64(); err == nil {
			return iv, nil
		}
		fv, err := t.Float64()
		if err != nil {
			return nil, fmt.Errorf("document: number %s out of range", t)
		}
		if fv == 0 {
			fv = 0 // +0, whatever the sign was
		}
		return fv, nil
	case []any:
		for i, e := range t {
			var err error
			if t[i], err = legacyFromJSON(e); err != nil {
				return nil, err
			}
		}
	case map[string]any:
		for k, e := range t {
			c, err := legacyFromJSON(e)
			if err != nil {
				return nil, err
			}
			t[k] = c
		}
	}
	return v, nil
}

var jsonTestStrings = []string{
	"", "plain", "with space", `quote " and \ backslash`, "<script>alert('x')&amp;</script>",
	"tab\tnewline\ncr\rbell\abs\bff\fnul\x00del\x7f", "ünïcödé — 日本語 🎉", "line\u2028sep\u2029para",
	"_id", "_version", "a.b", "Z", "z", "é", "\U0010ffff",
}

var jsonTestInts = []int64{0, 1, -1, 42, -1000000, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53) - 1}

var jsonTestFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 100, 3.141592653589793, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 5e-324,
	1e20, 1e21, 1.2345e21, -7e22, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 0.1 + 0.2,
	float64(1 << 62), 9.3e18,
}

// jsonGen generates field values. lossy is set when a generated value does
// not survive a decode (invalid UTF-8, typed nil containers, values outside
// the canonical type set keep their content but not their Go type).
type jsonGen struct {
	r     *rand.Rand
	lossy bool
}

func (g *jsonGen) str() string {
	r := g.r
	switch r.Intn(10) {
	case 0:
		g.lossy = true
		return "bad\xffutf8\xc3" // invalid UTF-8 becomes U+FFFD
	case 1, 2:
		b := make([]rune, r.Intn(12))
		for i := range b {
			b[i] = rune(r.Intn(0x2100)) // ASCII incl. controls, Latin, up past U+2028/9
		}
		return string(b)
	default:
		return jsonTestStrings[r.Intn(len(jsonTestStrings))]
	}
}

func (g *jsonGen) value(depth int) any {
	r := g.r
	n := 7
	if depth > 0 {
		n = 12
	}
	switch r.Intn(n) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		return jsonTestInts[r.Intn(len(jsonTestInts))]
	case 3:
		return r.Int63() - r.Int63()
	case 4:
		return jsonTestFloats[r.Intn(len(jsonTestFloats))]
	case 5:
		return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.Intn(0x7ff))<<52) // any finite float
	case 6:
		return g.str()
	case 7:
		switch r.Intn(8) {
		case 0:
			g.lossy = true
			return []any(nil) // encodes as null
		case 1:
			return []any{}
		}
		arr := make([]any, 1+r.Intn(4))
		for i := range arr {
			arr[i] = g.value(depth - 1)
		}
		return arr
	case 8, 9:
		switch r.Intn(8) {
		case 0:
			g.lossy = true
			return map[string]any(nil) // encodes as null
		case 1:
			return map[string]any{}
		}
		m := map[string]any{}
		for i := r.Intn(12); i >= 0; i-- { // up to 12 keys: past the sort scratch
			m[g.str()] = g.value(depth - 1)
		}
		return m
	default:
		// Values a caller stored without Normalize: same bytes through the
		// encoding/json fallback.
		switch r.Intn(4) {
		case 0:
			return r.Intn(1000) - 500
		case 1:
			return []string{g.str(), g.str()}
		case 2:
			return json.Number("12.50")
		default:
			g.lossy = true // prints as 0.1, which is another float64
			return float32(0.1)
		}
	}
}

func (g *jsonGen) document() *Document {
	d := &Document{ID: g.str(), Version: jsonTestInts[g.r.Intn(len(jsonTestInts))]}
	switch g.r.Intn(10) {
	case 0: // nil Fields
	case 1:
		d.Fields = map[string]any{}
	default:
		d.Fields = map[string]any{}
		for i := g.r.Intn(20); i >= 0; i-- { // up to 20 keys: past the sort scratch
			k := g.str()
			if k == "_id" || k == "_version" {
				g.lossy = true // shadowed by the identity keys
			}
			d.Fields[k] = g.value(3)
		}
	}
	return d
}

// TestAppendJSONMatchesEncodingJSON is the encoder's contract: over
// generated documents its bytes equal json.Marshal of the old map form,
// whether called directly, through json.Marshal(doc), or nested in a
// json.Encoder stream, and what it writes decodes back to the document.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	g := &jsonGen{r: rand.New(rand.NewSource(12))}
	for i := 0; i < 3000; i++ {
		g.lossy = false
		d := g.document()
		want, err := legacyMarshal(d)
		if err != nil {
			t.Fatalf("doc %d: reference encoder failed: %v", i, err)
		}
		prefix := []byte("prefix")
		got, err := d.AppendJSON(prefix)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("doc %d: AppendJSON differs\n got %s\nwant %s", i, got[len(prefix):], want)
		}
		if viaMarshal, err := json.Marshal(d); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Fatalf("doc %d: json.Marshal(doc) differs (%v)\n got %s\nwant %s", i, err, viaMarshal, want)
		}
		var stream bytes.Buffer
		if err := json.NewEncoder(&stream).Encode([]*Document{d, nil}); err != nil {
			t.Fatal(err)
		}
		if wantStream := "[" + string(want) + ",null]\n"; stream.String() != wantStream {
			t.Fatalf("doc %d: nested encoding differs\n got %s\nwant %s", i, stream.String(), wantStream)
		}

		var back Document
		if err := json.Unmarshal(got[len(prefix):], &back); err != nil {
			t.Fatalf("doc %d: decode %s: %v", i, want, err)
		}
		if g.lossy {
			continue
		}
		if orig := New(d.ID, d.Fields); back.ID != d.ID || back.Version != d.Version || !back.Equal(orig) {
			t.Fatalf("doc %d: round trip lost content\n sent %s\n back %s@%d %#v", i, want, back.ID, back.Version, back.Fields)
		}
	}
}

func TestAppendJSONRejectsNonFiniteFloats(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := &Document{ID: "x", Version: 1, Fields: map[string]any{"a": int64(1), "n": map[string]any{"f": []any{f}}}}
		if _, err := legacyMarshal(d); err == nil {
			t.Fatalf("reference encoder accepted %v", f)
		}
		out, err := d.AppendJSON([]byte("keep"))
		if err == nil {
			t.Errorf("AppendJSON accepted %v", f)
		}
		if string(out) != "keep" {
			t.Errorf("dst extended to %q on error", out)
		}
		if _, err := json.Marshal(d); err == nil {
			t.Errorf("json.Marshal(doc) accepted %v", f)
		}
	}
}

func TestAppendJSONNilDocument(t *testing.T) {
	var d *Document
	if out, err := d.AppendJSON(nil); err != nil || string(out) != "null" {
		t.Errorf("nil document = %q, %v", out, err)
	}
}

// TestWireFormCallerOwnedReencodes: a document nobody sealed belongs to
// its caller, who may encode it, change it and encode it again; the
// second encoding is the new content's.
func TestWireFormCallerOwnedReencodes(t *testing.T) {
	d := New("a", map[string]any{"n": 1, "tags": []any{"x"}})
	if _, err := d.AppendJSON(nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Set("n", 2); err != nil {
		t.Fatal(err)
	}
	d.Delete("tags")
	got, err := d.AppendJSON(nil)
	want, _ := legacyMarshal(d)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-encoded after a change as %s (%v); want %s", got, err, want)
	}
}

// TestWireFormFollowsVersion: a sealed document encodes once per Version.
// A store stamps Version on the document it is handed, so one inserted
// into a second store is restamped after the first sealed and encoded it.
func TestWireFormFollowsVersion(t *testing.T) {
	d := New("a", map[string]any{"title": "<b>", "n": 2.5})
	d.Seal()
	for _, version := range []int64{1, 1, 7, 7, 1} {
		d.Version = version
		want, _ := legacyMarshal(d)
		got, err := d.AppendJSON([]byte("prefix"))
		if err != nil || string(got) != "prefix"+string(want) {
			t.Fatalf("version %d encodes as %s (%v); want prefix%s", version, got, err, want)
		}
	}
}

// TestWireFormConcurrentEncoders: goroutines sharing one stored document
// encode it at once, half of them sealing it again first as an
// in-process replica does with its primary's pointers; every encoding is
// the reference's bytes. Run under -race.
func TestWireFormConcurrentEncoders(t *testing.T) {
	d := New("a", map[string]any{"tags": []any{"x", "y"}, "doc": map[string]any{"k": true, "n": int64(3)}})
	want, _ := legacyMarshal(d)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 100; i++ {
				if g%2 == 0 {
					d.Seal()
				}
				var err error
				if buf, err = d.AppendJSON(buf[:0]); err != nil || !bytes.Equal(buf, want) {
					t.Errorf("goroutine %d encodes %s (%v); want %s", g, buf, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzDocumentJSON: no input makes UnmarshalJSON panic; whatever it decodes
// AppendJSON encodes without error, to encoding/json's bytes for the same
// document, and those bytes decode and encode back to themselves.
func FuzzDocumentJSON(f *testing.F) {
	g := &jsonGen{r: rand.New(rand.NewSource(12))}
	for i := 0; i < 64; i++ {
		if data, err := legacyMarshal(g.document()); err == nil {
			f.Add(data)
		}
	}
	// Regressions: a number beyond float64's range decoded as +Inf, which
	// AppendJSON refuses (found by this target); a negative zero float
	// encoded as "-0" and came back as the integer 0.
	f.Add([]byte(`{"0":[200000000000000e297]}`))
	f.Add([]byte(`{"a":-0.0,"b":-1e-400,"c":{"d":[-0]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Document
		if d.UnmarshalJSON(data) != nil {
			return
		}
		got, err := d.AppendJSON(nil)
		if err != nil {
			t.Fatalf("%q decoded to a document AppendJSON refuses: %v", data, err)
		}
		if want, err := legacyMarshal(&d); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%q: AppendJSON differs from encoding/json (%v)\n got %s\nwant %s", data, err, got, want)
		}
		var again Document
		if err := again.UnmarshalJSON(got); err != nil {
			t.Fatalf("%q: its encoding %s does not decode: %v", data, got, err)
		}
		if back, err := again.AppendJSON(nil); err != nil || !bytes.Equal(back, got) {
			t.Fatalf("%q: the round trip is not stable (%v)\n first %s\nsecond %s", data, err, got, back)
		}
	})
}

// decodeSeeds are inputs on every rule of the decoder's contract: escapes,
// surrogates, invalid UTF-8, the number grammar and its range, duplicate
// keys, nesting at and past the limit, top-level shapes and trailing
// bytes.
func decodeSeeds() []string {
	nest := func(depth int) string { // depth counts the outer object
		return `{"a":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
	}
	zeros := "1" + strings.Repeat("0", 399) // 400 digits
	return []string{
		``, ` `, `null`, ` null `, `nul`, `nullx`, `{}`, `[]`, `"s"`, `1`, `true`, `{"a":[]}`, `{"a":{}}`,
		`{"a":"\"\\\/\b\f\n\r\t\u0000\u00e9\u00E9\u2028"}`, `{"a":"\x"}`, `{"a":"\u12"}`, `{"a":"\u12G4"}`,
		`{"a":"\ud83d\ude00"}`, `{"a":"\ud800"}`, `{"a":"\udc00\ud800"}`, `{"a":"\ud800\u0041"}`, `{"a":"\ud800\uZZZZ"}`,
		`{"a":"\ud800\ud800\udc00"}`, `{"\ud800":1,"\udbff":2}`,
		"{\"a\":\"bad\xffutf8\xc3\"}", "{\"a\":\"\xed\xa0\x80\xc0\xaf\"}", "{\"\xff\":1,\"\xfe\":2}", "{\"a\":\"\xef\xbf\xbd\"}",
		"{\"a\":\"tab\tin\"}", "{\"a\":\"nul\x00\"}", "{\"a\":\"del\x7f\"}",
		`{"a":1e400}`, `{"a":-1e400}`, `{"a":1e-400}`, `{"a":-0}`, `{"a":-0.0}`, `{"a":1.0}`, `{"a":1e2}`, `{"a":1E+2}`, `{"a":1e-2}`,
		`{"a":9223372036854775807}`, `{"a":9223372036854775808}`, `{"a":-9223372036854775808}`, `{"a":-9223372036854775809}`,
		`{"a":12345678901234567890123}`, `{"a":9007199254740993}`, `{"a":01}`, `{"a":-}`, `{"a":1.}`, `{"a":.5}`, `{"a":1e}`,
		`{"a":1e+}`, `{"a":+1}`, `{"a":-a}`, `{"a":tru}`, `{"a":nulll}`, `{"a":falsey}`,
		`{"a":1,"a":2}`, `{"a":{"x":1},"a":{"y":2}}`, `{"a":[1e400],"a":0}`, `{"a":{"b":1e400},"a":{"b":1}}`, `{"_id":1e400}`,
		`{"_version":1e400}`, `{"_version":[1e400]}`, `{"a":1e400,"b":1e400,"a":1}`, `{"_id":"a","_id":5}`, `{"_id":5}`, `{"_version":1.5}`, `{"_version":1.0}`,
		`{"_version":"7"}`, `{"_version":null}`, `{"_version":9223372036854775808}`, `{"_version":-0}`, `{"_id":"x","_version":3,"n":[1,2.5,"s",null,{"y":true}]}`,
		`{"a" 1}`, `{"a":1,}`, `{,}`, `{"a":[1,]}`, `{"a":[,1]}`, `{"a":[1 2]}`, `{"a":1 "b":2}`, `{1:2}`, `{"a":}`, `{"a"`, `{"a":"x`,
		" \t\n\r{ \"a\" : [ 1 , 2 ] } \r\n", "\f{}", "{\"a\":\u00a01}", "\xef\xbb\xbf{}",
		nest(maxDepth), nest(maxDepth + 1), `{"a":1} x`, `{"a":1}{}`, `{} []`, `{}}`, `{"a":1}` + "\n",
		// Long literals and exponents with five or more digits, either sign.
		`{"a":` + zeros + `e-00000}`, `{"a":` + zeros + `.5e-00012}`, `{"a":[` + zeros + `e-0012]}`, `{"a":1e00000400}`, `{"a":-1e+00308}`,
		`{"a":1e-00000400}`, `{"a":1` + zeros[:308] + `}`, `{"a":-2` + zeros[:308] + `}`, `{"a":0.` + zeros + `1e00700}`,
	}
}

// FuzzDecodeDocument: the single-pass decoder against the one it
// replaced. Both accept or both refuse; when they accept, the documents
// agree on ID and Version, their fields are DeepEqual (which tells an
// int64 from a float64), and they encode to the same bytes.
func FuzzDecodeDocument(f *testing.F) {
	g := &jsonGen{r: rand.New(rand.NewSource(12))}
	for i := 0; i < 64; i++ {
		if data, err := legacyMarshal(g.document()); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"0":[200000000000000e297]}`))
	f.Add([]byte(`{"a":-0.0,"b":-1e-400,"c":{"d":[-0]}}`))
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Document
		gotErr := got.UnmarshalJSON(data)
		want, wantErr := legacyUnmarshal(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder err = %v, reference err = %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.ID != want.ID || got.Version != want.Version || !reflect.DeepEqual(got.Fields, want.Fields) {
			t.Fatalf("%q:\n got %q v%d %#v\nwant %q v%d %#v", data, got.ID, got.Version, got.Fields, want.ID, want.Version, want.Fields)
		}
		gb, gerr := got.AppendJSON(nil)
		wb, werr := want.AppendJSON(nil)
		if gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
			t.Fatalf("%q: encodings differ (%v, %v)\n got %s\nwant %s", data, gerr, werr, gb, wb)
		}
	})
}

// TestDecodeIntoExistingDocument: like the UnmarshalJSON it replaced,
// decoding keeps the target's ID and Version unless the input sets them,
// and replaces its fields.
func TestDecodeIntoExistingDocument(t *testing.T) {
	for _, tc := range []struct {
		in   string
		id   string
		ver  int64
		keys int
	}{
		{`{"x":1}`, "keep", 7, 1},
		{`null`, "keep", 7, 0},
		{`{"_id":"new","_version":9}`, "new", 9, 0},
		{`{"_id":1,"_version":"9","y":[]}`, "keep", 7, 1},
	} {
		d := &Document{ID: "keep", Version: 7, Fields: map[string]any{"old": true, "x": 0}}
		if err := d.UnmarshalJSON([]byte(tc.in)); err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if d.ID != tc.id || d.Version != tc.ver || len(d.Fields) != tc.keys || d.Fields["old"] != nil {
			t.Errorf("%s: got %q v%d %v", tc.in, d.ID, d.Version, d.Fields)
		}
	}
	var empty Document
	if err := empty.UnmarshalJSON([]byte(`{"a":[]}`)); err != nil || empty.Fields["a"] == nil || len(empty.Fields["a"].([]any)) != 0 {
		t.Errorf("[] decoded to %#v (%v), want a non-nil empty slice", empty.Fields["a"], err)
	}
}
