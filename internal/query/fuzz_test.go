package query

import (
	"encoding/json"
	"testing"
)

// FuzzParseJSON feeds arbitrary bytes to the predicate parser — what
// server.ParseQueryRequest does with a request's ?q=. It must never panic,
// and whatever parses must survive the client's rendering of it
// (client.QueryPath: FilterDocument, then json.Marshal) back through
// ParseJSON to a predicate with the same Query.Key(): otherwise a client
// checks a different EBF key than the server reports for the same query.
// Seeded from the parser's table tests.
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
		if err != nil {
			return
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
