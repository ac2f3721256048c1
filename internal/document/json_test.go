package document

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
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
			t.Fatalf("doc %d: round trip lost content\n sent %s\n back %#v", i, want, back)
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
