package query

import (
	"testing"

	"quaestor/internal/document"
)

func doc(fields map[string]any) *document.Document {
	return document.New("d1", fields)
}

// textDoc returns d as the server holds it: a text document of its wire
// form.
func textDoc(t *testing.T, d *document.Document) *document.Document {
	t.Helper()
	wire, err := d.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out document.Document
	if err := document.NewDecoder(wire).DocumentText(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// fieldMap reads a decoded body the way a predicate reads a document.
type fieldMap map[string]any

func (m fieldMap) Get(path string) (any, bool) { return document.GetPath(map[string]any(m), path) }

func (m fieldMap) Holds(path string, v any) (found, equal, element bool) {
	stored, ok := m.Get(path)
	if !ok {
		return false, false, false
	}
	equal, element = document.ValueHolds(stored, v)
	return true, equal, element
}

func TestFieldOperators(t *testing.T) {
	post := doc(map[string]any{
		"title":  "Hello",
		"rating": 42,
		"tags":   []any{"example", "music"},
		"author": map[string]any{"name": "Kim"},
	})
	cases := []struct {
		name string
		pred Predicate
		want bool
	}{
		{"eq string", Eq("title", "Hello"), true},
		{"eq mismatch", Eq("title", "Bye"), false},
		{"eq array membership", Eq("tags", "example"), true},
		{"eq nested path", Eq("author.name", "Kim"), true},
		{"ne", Ne("title", "Bye"), true},
		{"ne equal", Ne("title", "Hello"), false},
		{"ne missing field matches", Ne("missing", 1), true},
		{"gt", Gt("rating", 41), true},
		{"gt equal", Gt("rating", 42), false},
		{"gte equal", Gte("rating", 42), true},
		{"lt", Lt("rating", 43), true},
		{"lte", Lte("rating", 42), true},
		{"gt cross-type guarded", Gt("title", 5), false},
		{"in", In("rating", 1, 42, 99), true},
		{"in miss", In("rating", 1, 2), false},
		{"contains", Contains("tags", "example"), true},
		{"contains miss", Contains("tags", "jazz"), false},
		{"contains non-array", Contains("title", "H"), false},
		{"exists true", Exists("rating", true), true},
		{"exists false", Exists("missing", false), true},
		{"exists wrong", Exists("missing", true), false},
		{"prefix", Prefix("title", "He"), true},
		{"prefix miss", Prefix("title", "he"), false},
		{"numeric cross-type eq", Eq("rating", 42.0), true},
	}
	text := textDoc(t, post)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.pred.Matches(post); got != tc.want {
				t.Errorf("got %v, want %v", got, tc.want)
			}
			if got := tc.pred.Matches(text); got != tc.want {
				t.Errorf("text document: got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestNinMissingFieldMatches(t *testing.T) {
	p := &Field{Path: "missing", Op: OpNin, Value: []any{int64(1)}}
	if !p.Matches(fieldMap{}) {
		t.Error("$nin on missing field should match (Mongo semantics)")
	}
	p2 := &Field{Path: "x", Op: OpNin, Value: []any{int64(1)}}
	if p2.Matches(fieldMap{"x": int64(1)}) {
		t.Error("$nin containing the value must not match")
	}
}

func TestSizeOperator(t *testing.T) {
	p := &Field{Path: "tags", Op: OpSize, Value: int64(2)}
	if !p.Matches(fieldMap{"tags": []any{"a", "b"}}) {
		t.Error("$size should match")
	}
	if p.Matches(fieldMap{"tags": []any{"a"}}) {
		t.Error("$size mismatch matched")
	}
}

func TestBooleanCombinators(t *testing.T) {
	fields := map[string]any{"a": int64(1), "b": int64(2)}
	and := AndOf(Eq("a", 1), Eq("b", 2))
	if !and.Matches(fieldMap(fields)) {
		t.Error("and should match")
	}
	if AndOf(Eq("a", 1), Eq("b", 3)).Matches(fieldMap(fields)) {
		t.Error("and with false child matched")
	}
	if !OrOf(Eq("a", 9), Eq("b", 2)).Matches(fieldMap(fields)) {
		t.Error("or should match")
	}
	if OrOf(Eq("a", 9), Eq("b", 9)).Matches(fieldMap(fields)) {
		t.Error("or with no true child matched")
	}
	if !NotOf(Eq("a", 9)).Matches(fieldMap(fields)) {
		t.Error("not should match")
	}
	if (True{}).Matches(fieldMap(fields)) != true {
		t.Error("True must match everything")
	}
}

func TestKeyNormalizationCommutative(t *testing.T) {
	q1 := New("posts", AndOf(Eq("a", 1), Contains("tags", "x")))
	q2 := New("posts", AndOf(Contains("tags", "x"), Eq("a", 1)))
	if q1.Key() != q2.Key() {
		t.Errorf("AND should be commutative in the canonical key:\n%s\n%s", q1.Key(), q2.Key())
	}
	q3 := New("posts", OrOf(Eq("a", 1), Eq("b", 2)))
	q4 := New("posts", OrOf(Eq("b", 2), Eq("a", 1)))
	if q3.Key() != q4.Key() {
		t.Error("OR should be commutative in the canonical key")
	}
}

func TestKeyIncludesClauses(t *testing.T) {
	base := New("posts", Eq("a", 1))
	sorted := base.Sorted(Desc("rating"))
	sliced := sorted.Sliced(5, 10)
	keys := map[string]bool{base.Key(): true, sorted.Key(): true, sliced.Key(): true}
	if len(keys) != 3 {
		t.Errorf("sort/limit/offset must distinguish keys: %v", keys)
	}
	if base.Key() == New("other", Eq("a", 1)).Key() {
		t.Error("table must be part of the key")
	}
}

func TestStateful(t *testing.T) {
	q := New("posts", Eq("a", 1))
	if q.Stateful() {
		t.Error("plain predicate should be stateless")
	}
	if !q.Sorted(Asc("x")).Stateful() {
		t.Error("sorted query should be stateful")
	}
	if !q.Sliced(0, 5).Stateful() {
		t.Error("limited query should be stateful")
	}
	if !q.Sliced(3, 0).Stateful() {
		t.Error("offset query should be stateful")
	}
}

func mkDocs(ratings ...int) []*document.Document {
	out := make([]*document.Document, len(ratings))
	for i, r := range ratings {
		out[i] = document.New(string(rune('a'+i)), map[string]any{"rating": r, "keep": true})
	}
	return out
}

func TestApplySortLimitOffset(t *testing.T) {
	docs := mkDocs(5, 3, 9, 1, 7)
	q := New("t", Eq("keep", true)).Sorted(Desc("rating")).Sliced(1, 2)
	got := q.Apply(docs)
	if len(got) != 2 {
		t.Fatalf("want 2 docs, got %d", len(got))
	}
	r0, _ := got[0].Get("rating")
	r1, _ := got[1].Get("rating")
	if r0 != int64(7) || r1 != int64(5) {
		t.Errorf("window wrong: %v %v", r0, r1)
	}
}

func TestApplyOffsetBeyondEnd(t *testing.T) {
	q := New("t", True{}).Sliced(100, 5)
	if got := q.Apply(mkDocs(1, 2)); len(got) != 0 {
		t.Errorf("offset beyond end should be empty, got %d", len(got))
	}
}

func TestLessTieBreakByID(t *testing.T) {
	a := document.New("a", map[string]any{"r": 1})
	b := document.New("b", map[string]any{"r": 1})
	q := New("t", True{}).Sorted(Asc("r"))
	if !q.Less(a, b) || q.Less(b, a) {
		t.Error("equal sort keys must break ties by id")
	}
}

func TestMatchesNilDoc(t *testing.T) {
	q := New("t", True{})
	if q.Matches(nil) {
		t.Error("nil document must not match")
	}
}

func TestKeyMemoization(t *testing.T) {
	q := New("t", Eq("a", 1))
	k1 := q.Key()
	k2 := q.Key()
	if k1 != k2 {
		t.Error("Key must be stable")
	}
	// Sorted/Sliced return copies with fresh keys.
	s := q.Sorted(Asc("a"))
	if s.Key() == k1 {
		t.Error("derived query reused memoized key")
	}
}
