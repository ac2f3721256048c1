package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"quaestor/internal/document"
	"quaestor/internal/wal"
)

// spliceTexts are stored texts for the splice tests: in wire form, out of
// it (whitespace, key order), with escaped keys, nested arrays and
// objects, and long-exponent literals.
func spliceTexts() []string {
	zeros := "1" + strings.Repeat("0", 299) // with e-00012, parsed to tell its range
	return []string{
		`{"_id":"a","_version":1,"n":1,"o":{"p":{"q":1},"r":[1,{"s":2}]},"s":"x","tags":["a","b"]}`,
		`{"tags": ["a","b"], "n": 1.5, "o": {"r": []}}`,
		`{"_id":"a","_version":1,"a<b":1,"é":{"k\"":2},"z":null}`,
		`{"_id":"a","_version":1,"m":[[1,2],[3]],"e":[],"o":{}}`,
		`{"_id":"a","_version":1,"a":` + zeros + `.5e-00012,"b":[` + zeros + `e-0012]}`,
		`{"_id":"a","_version":1,"a":1e-00000400,"b":-1e+00308}`,
		`{"_id":"a","_version":1}`,
		`{}`,
		`{"_version":2,"_id":"b","n":9007199254740993}`,
	}
}

// spliceSpecs are update specs, as a PATCH body binds them: paths through
// scalars, nested and missing paths, "_id" and "_version", escaped keys,
// overlapping paths, array indexes in and out of range, refusals.
func spliceSpecs() []string {
	return []string{
		`{"set":{"n":2}}`, `{"set":{"o.p.q":"new","o.r.1.s":[1]}}`, `{"set":{"missing.deep.path":[1,{"x":null}]}}`,
		`{"set":{"s.x":1}}`, `{"set":{"tags.1":"z"}}`, `{"set":{"tags.5":1}}`, `{"set":{"tags.x":1}}`, `{"set":{"tags.-1":1}}`,
		`{"set":{"_id":"evil","_version":9}}`, `{"set":{"_id":5},"push":{"_id":1}}`, `{"set":{"_id.x":1,"n":3}}`,
		`{"unset":["tags","o.p","o.r.1","nope","_id","n.x"]}`, `{"unset":["tags.0","a","z","e"]}`,
		`{"inc":{"n":1.5,"o.p.q":-1,"z":3}}`, `{"inc":{"s":1}}`, `{"inc":{"n":1e308},"set":{"n":1e308}}`,
		`{"inc":{"_version":1}}`, `{"push":{"tags":"c","new":{"k":1},"e":[]}}`, `{"push":{"s":1}}`,
		`{"pull":{"tags":"a","m":[3]}}`, `{"pull":{"n":1}}`, `{"set":{"a<b":1,"é.k\"":3,"é.j":4}}`,
		`{"set":{"a":{"b":1},"a.c":2}}`, `{"set":{"":1},"unset":[""]}`, `{"inc":{"":1}}`, `{"set":{"m.0.1":"x","m.1.0.y":1}}`,
		`{"set":{"0":0,"~":1,"A":2,"_":3}}`, `{"unset":["n"],"set":{"n":{"x":[]}}}`,
	}
}

// parseSpec binds a spec as a PATCH body would, or reports false for one
// that is not a spec.
func parseSpec(data string) (UpdateSpec, bool) {
	var spec UpdateSpec
	dec := document.NewDecoder([]byte(data))
	v, err := dec.Value()
	if err != nil || dec.End() != nil {
		return spec, false
	}
	m, ok := v.(map[string]any)
	if !ok {
		return spec, false
	}
	obj := func(key string) (map[string]any, bool) {
		o, ok := m[key].(map[string]any)
		return o, ok || m[key] == nil
	}
	if spec.Set, ok = obj("set"); !ok {
		return spec, false
	}
	if spec.Push, ok = obj("push"); !ok {
		return spec, false
	}
	if spec.Pull, ok = obj("pull"); !ok {
		return spec, false
	}
	inc, ok := obj("inc")
	if !ok {
		return spec, false
	}
	for path, n := range inc {
		if spec.Inc == nil {
			spec.Inc = map[string]float64{}
		}
		switch n := n.(type) {
		case int64:
			spec.Inc[path] = float64(n)
		case float64:
			spec.Inc[path] = n
		default:
			return spec, false
		}
	}
	if unset, isList := m["unset"].([]any); isList {
		for _, p := range unset {
			s, isStr := p.(string)
			if !isStr {
				return spec, false
			}
			spec.Unset = append(spec.Unset, s)
		}
	}
	return spec, true
}

// specPaths returns every path spec names, with each path's prefixes.
func specPaths(spec UpdateSpec) []string {
	paths := slices.Clone(spec.Unset)
	for _, m := range []map[string]any{spec.Set, spec.Push, spec.Pull} {
		for p := range m {
			paths = append(paths, p)
		}
	}
	for p := range spec.Inc {
		paths = append(paths, p)
	}
	var out []string
	for _, p := range paths {
		for i := range p {
			if p[i] == '.' {
				out = append(out, p[:i])
			}
		}
		out = append(out, p)
	}
	return out
}

// plainPaths reports whether a draft can splice every path of spec: none
// is empty or under "_id" or "_version".
func plainPaths(spec UpdateSpec) bool {
	for _, p := range specPaths(spec) {
		top, _, _ := strings.Cut(p, ".")
		if p == "" || top == "_id" || top == "_version" {
			return false
		}
	}
	return true
}

// checkSplice applies spec to prev both ways — the store's update, which
// splices a text in wire form, and the reference: decode, apply, encode —
// and requires the same refusal or the same document: the same wire
// form, Body, and Get and IndexKeys on every path the spec names and
// every top-level field. A text in wire form must be spliced with no
// decode when every path is plain.
func checkSplice(t *testing.T, prev *document.Document, spec UpdateSpec, wireForm bool) {
	t.Helper()
	ref := prev.Clone()
	refErr := ApplySpec(ref, spec)
	ref.Version = prev.Version + 1
	before := document.TextDecodes()
	got, gotErr := updated(prev, spec)
	decodes := document.TextDecodes() - before
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("%+v: update err = %v, reference err = %v", spec, gotErr, refErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrBadUpdateSpec) {
			t.Fatalf("%+v: refused with %v, not ErrBadUpdateSpec", spec, gotErr)
		}
		return
	}
	if got.ID != prev.ID || got.Version != prev.Version+1 {
		t.Fatalf("%+v: got %s v%d, want %s v%d", spec, got.ID, got.Version, prev.ID, prev.Version+1)
	}
	refWire, refEncErr := ref.AppendJSON(nil)
	got.Seal()
	gotWire, gotEncErr := got.AppendJSON(nil)
	if (refEncErr == nil) != (gotEncErr == nil) {
		t.Fatalf("%+v: encoding err = %v, reference err = %v", spec, gotEncErr, refEncErr)
	}
	if refEncErr != nil {
		return // ±Inf from an inc: neither has a wire form
	}
	if !bytes.Equal(gotWire, refWire) {
		t.Fatalf("%+v: wire form\n got %s\nwant %s", spec, gotWire, refWire)
	}
	if got.Fields != nil {
		t.Fatalf("%+v: an update with a wire form was installed with Fields", spec)
	}
	if wireForm && plainPaths(spec) && decodes != 0 {
		t.Fatalf("%+v: splicing a text in wire form decoded %d bodies", spec, decodes)
	}
	// The reference as recovery reads it back from the log.
	var back document.Document
	if err := back.UnmarshalJSON(refWire); err != nil {
		t.Fatalf("%s does not decode: %v", refWire, err)
	}
	if !document.DeepEqual(got.Body(), back.Fields) {
		t.Fatalf("%+v: body %#v, want %#v", spec, got.Body(), back.Fields)
	}
	paths := specPaths(spec)
	for k := range back.Fields {
		paths = append(paths, k)
	}
	for _, p := range paths {
		gv, gok := got.Get(p)
		wv, wok := back.Get(p)
		if gok != wok || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%+v: Get(%q) = %#v, %v; want %#v, %v", spec, p, gv, gok, wv, wok)
		}
		gk, ge, gElems, gFound := got.IndexKeys(p, nil, nil)
		wk, we, wElems, wFound := back.IndexKeys(p, nil, nil)
		if !bytes.Equal(gk, wk) || !slices.Equal(ge, we) || gElems != wElems || gFound != wFound {
			t.Fatalf("%+v: IndexKeys(%q) = %q %v; want %q %v", spec, p, gk, gFound, wk, wFound)
		}
	}
}

// loadText decodes text as the server decodes a document it stores; ok
// is false for a text it refuses.
func loadText(text string) (*document.Document, bool) {
	doc := new(document.Document)
	dec := document.NewDecoder([]byte(text))
	if dec.DocumentText(doc) != nil || dec.End() != nil {
		return nil, false
	}
	return doc, true
}

// storedText is loadText's document as the store keeps it: stamped and
// sealed.
func storedText(text string) (*document.Document, bool) {
	doc, ok := loadText(text)
	if ok {
		doc.ID, doc.Version = "k", 3
		doc.Seal()
	}
	return doc, ok
}

func withID(doc *document.Document, id string) *document.Document {
	doc.ID = id
	return doc
}

// FuzzSpliceUpdate: an update spliced into a stored text against the
// decode, apply and encode it replaces, on the text as it arrived and
// once in wire form: the same refusals, else the same wire form, Body,
// Get and IndexKeys, and no decode where the text can take the spec.
func FuzzSpliceUpdate(f *testing.F) {
	for _, text := range spliceTexts() {
		for _, spec := range spliceSpecs() {
			f.Add(text, spec)
		}
	}
	f.Add(`{"_id":"a","_version":1,"a":1e00000400}`, `{"set":{"b":1}}`) // refused: stored with Fields
	f.Fuzz(func(t *testing.T, text, specText string) {
		spec, ok := parseSpec(specText)
		if !ok {
			return
		}
		prev, ok := storedText(text)
		if !ok {
			return
		}
		checkSplice(t, prev, spec, false)
		if _, err := prev.AppendJSON(nil); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		checkSplice(t, prev, spec, true)
	})
}

// TestSpliceUpdateSeeds runs the fuzz seeds as a plain test, each on its
// own subtest.
func TestSpliceUpdateSeeds(t *testing.T) {
	for i, text := range spliceTexts() {
		for j, specText := range spliceSpecs() {
			t.Run(fmt.Sprintf("text%d/spec%d", i, j), func(t *testing.T) {
				spec, ok := parseSpec(specText)
				if !ok {
					t.Fatalf("seed spec %s does not parse", specText)
				}
				prev, ok := storedText(text)
				if !ok {
					t.Fatalf("seed text %s does not decode", text)
				}
				checkSplice(t, prev, spec, false)
				if _, err := prev.AppendJSON(nil); err != nil {
					t.Fatal(err)
				}
				checkSplice(t, prev, spec, true)
			})
		}
	}
}

// TestSplicedUpdatesRecover: on a durable store every update is one log
// record holding the spliced text, and reopening the store recovers each
// record to the same Body and wire form.
func TestSplicedUpdatesRecover(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, wal.FsyncAlways) // a write returns once its record is counted
	if err := s.CreateTable("posts"); err != nil {
		t.Fatal(err)
	}
	texts := spliceTexts()
	for i, text := range texts {
		doc, ok := loadText(text)
		if !ok {
			t.Fatalf("%s does not decode", text)
		}
		if err := s.Put("posts", withID(doc, fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := s.DurabilityStats()
	appends := st.WAL.Appends
	writes := uint64(0)
	for i := range texts {
		for _, specText := range spliceSpecs() {
			spec, _ := parseSpec(specText)
			if _, err := s.Update("posts", fmt.Sprintf("p%d", i), spec); err == nil {
				writes++
			}
		}
	}
	if st, _ := s.DurabilityStats(); st.WAL.Appends-appends != writes {
		t.Fatalf("%d updates appended %d log records, want one each", writes, st.WAL.Appends-appends)
	}
	want := map[string]string{}
	for i := range texts {
		id := fmt.Sprintf("p%d", i)
		doc, err := s.Get("posts", id)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := doc.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = string(wire)
	}
	s.Close()

	s = openDurable(t, dir, wal.FsyncNever)
	defer s.Close()
	for id, wire := range want {
		doc, err := s.Get("posts", id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := doc.AppendJSON(nil)
		if err != nil || string(got) != wire {
			t.Errorf("%s recovered as %s (%v), want %s", id, got, err, wire)
		}
		var ref document.Document
		if err := ref.UnmarshalJSON([]byte(wire)); err != nil {
			t.Fatal(err)
		}
		if !document.DeepEqual(doc.Body(), ref.Fields) {
			t.Errorf("%s recovered body %#v, want %#v", id, doc.Body(), ref.Fields)
		}
	}
}
