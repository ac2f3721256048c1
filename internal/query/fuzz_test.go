package query

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// referenceParseJSON is the parser ParseJSON replaced: encoding/json with
// UseNumber into a map, then ParseFilter. It stays here as the reference
// the single-pass parser must match. It reads the first JSON value and
// ignores whatever follows it.
func referenceParseJSON(data []byte) (Predicate, error) {
	if len(data) == 0 {
		return True{}, nil
	}
	var m map[string]any
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("query: invalid filter JSON: %w", err)
	}
	return ParseFilter(m)
}

// rendering is p as the client renders it (FilterDocument, then
// json.Marshal), except that the children of $and and $or are in sorted
// order: the parsers walk a map, so their order varies between parses.
func rendering(t *testing.T, p Predicate) string {
	var op string
	var children []Predicate
	switch c := p.(type) {
	case *And:
		op, children = "$and", c.Children
	case *Or:
		op, children = "$or", c.Children
	case *Not:
		return `{"$not":` + rendering(t, c.Child) + `}`
	default:
		b, err := json.Marshal(FilterDocument(p))
		if err != nil {
			t.Fatalf("%v does not render: %v", p, err)
		}
		return string(b)
	}
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = rendering(t, c)
	}
	slices.Sort(parts)
	return `{"` + op + `":[` + strings.Join(parts, ",") + `]}`
}

// FuzzParseJSON feeds arbitrary bytes to the predicate parser — what
// server.ParseQueryRequest does with a request's ?q=. It must never panic,
// and it must decide as referenceParseJSON does and yield the same
// predicate, with two differences: ParseJSON refuses bytes after the
// filter's value, which the reference ignores, and a number beyond
// float64's range, which the reference refuses only when a duplicate key
// does not overwrite it. Whatever parses must survive the client's
// rendering of it (client.QueryPath: FilterDocument, then json.Marshal)
// back through ParseJSON to a predicate with the same Query.Key():
// otherwise a client checks a different EBF key than the server reports
// for the same query. Seeded from the parser's table tests.
func FuzzParseJSON(f *testing.F) {
	for _, seed := range []string{
		``,
		`{`,
		`null`,
		`{}`,
		`{"title": "Hello"}`,
		`{"rating": {"$gt": 10, "$lt": 50}, "tags": {"$contains": "example"}}`,
		`{"$or": [{"a": 1}, {"b": {"$gte": 5}}]}`,
		`{"$not": {"a": 1}}`,
		`{"a": 1, "b": 2}`,
		`{"tags": {"$contains": "example"}, "rating": {"$gte": 10}}`,
		`{"n": 9007199254740993}`,
		`{"$and": [{"x": {"$in": [1, "two", null]}}, {"y": {"$exists": false}}]}`,
		`{"p": {"$prefix": "ab"}, "s": {"$size": 2}, "z": {"$nin": []}}`,
		`{"doc": {"nested": [1.5, {"k": true}]}}`,
		`{"$unknown": []}`,
		`{"$and": "not-an-array"}`,
		`{"$not": "not-a-doc"}`,
		`{"x": {"$bogus": 1}}`,
		`{"x": {"$in": "not-an-array"}}`,
		`{"x": {"$exists": "yes"}}`,
		`{"x": 1e400}`,
		`{"n": 993900771992171992.47409400}`,
		`{"a": 1} {"b": 2}`,
		`{"a": 1}x`,
		`{"x": 1e400, "x": 1}`,
		`[{"a": 1}]`,
		// The $in width and nesting depth limits, at and one past each.
		inListJSON("$in", MaxInValues),
		inListJSON("$nin", MaxInValues+1),
		nestedJSON("$and", MaxPredicateDepth, `{"a": 1}`),
		nestedJSON("$not", MaxPredicateDepth+1, `{"a": 1, "b": 2}`),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseJSON(data)
		ref, refErr := referenceParseJSON(data)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("%q parses; the reference refuses it: %v", data, refErr)
		case err != nil && refErr == nil:
			// The reference accepted the first value, so an invalid
			// text has bytes after it.
			trailing := !json.Valid(data)
			if !trailing && !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("%q is refused (%v); the reference parses it", data, err)
			}
			return
		case err != nil:
			return
		}
		if got, want := rendering(t, p), rendering(t, ref); got != want {
			t.Fatalf("%q parses as %s; the reference parses it as %s", data, got, want)
		}
		rendered, err := json.Marshal(FilterDocument(p))
		if err != nil {
			t.Fatalf("%q parses but does not render: %v", data, err)
		}
		back, err := ParseJSON(rendered)
		if err != nil {
			t.Fatalf("%q renders as %s, which does not parse: %v", data, rendered, err)
		}
		if got, want := New("t", back).Key(), New("t", p).Key(); got != want {
			t.Fatalf("%q renders as %s, key %s; want key %s", data, rendered, got, want)
		}
	})
}

// TestRenderedFilterKeepsItsKey pins the two breaks FuzzParseJSON found.
// A number literal beyond float64's range decoded to +Inf, which parsed
// but could not be rendered at all (the SDK then sent an empty filter); it
// is refused now. An integral float past 2^53 rendered as its shortest
// decimal, another integer, so the server keyed a different query than
// the client that built it; it renders as the integer the key prints.
func TestRenderedFilterKeepsItsKey(t *testing.T) {
	if _, err := ParseJSON([]byte(`{"x": 1e400}`)); err == nil {
		t.Error(`{"x": 1e400} parses; want an out-of-range error`)
	}
	if _, err := ParseJSON([]byte(`{"x": {"$in": [1, -1e400]}}`)); err == nil {
		t.Error(`{"x": {"$in": [1, -1e400]}} parses; want an out-of-range error`)
	}
	for _, p := range []Predicate{
		Eq("n", 993900771992172032.0),
		In("n", 993900771992172032.0, 1.5),
		Eq("doc", map[string]any{"n": -4611686018427387904.0}),
	} {
		rendered, err := json.Marshal(FilterDocument(p))
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseJSON(rendered)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := New("t", back).Key(), New("t", p).Key(); got != want {
			t.Errorf("rendered as %s, key %s; want %s", rendered, got, want)
		}
	}
}
