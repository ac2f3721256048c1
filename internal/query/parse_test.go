package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseFilterEquality(t *testing.T) {
	p, err := ParseFilter(map[string]any{"title": "Hello"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Matches(fieldMap{"title": "Hello"}) {
		t.Error("plain equality filter failed")
	}
}

func TestParseFilterOperators(t *testing.T) {
	p, err := ParseFilter(map[string]any{
		"rating": map[string]any{"$gt": 10, "$lt": 50},
		"tags":   map[string]any{"$contains": "example"},
	})
	if err != nil {
		t.Fatal(err)
	}
	match := map[string]any{"rating": int64(30), "tags": []any{"example"}}
	if !p.Matches(fieldMap(match)) {
		t.Error("operator filter should match")
	}
	if p.Matches(fieldMap{"rating": int64(60), "tags": []any{"example"}}) {
		t.Error("range violation matched")
	}
}

func TestParseFilterBooleans(t *testing.T) {
	p, err := ParseFilter(map[string]any{
		"$or": []any{
			map[string]any{"a": 1},
			map[string]any{"b": map[string]any{"$gte": 5}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Matches(fieldMap{"a": int64(1)}) || !p.Matches(fieldMap{"b": int64(9)}) {
		t.Error("$or arm failed")
	}
	if p.Matches(fieldMap{"a": int64(2), "b": int64(2)}) {
		t.Error("$or matched with no true arm")
	}

	pn, err := ParseFilter(map[string]any{"$not": map[string]any{"a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if pn.Matches(fieldMap{"a": int64(1)}) {
		t.Error("$not failed")
	}
}

func TestParseFilterTopLevelSiblingsAreAnd(t *testing.T) {
	p, err := ParseFilter(map[string]any{"a": 1, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Matches(fieldMap{"a": int64(1), "b": int64(2)}) {
		t.Error("both siblings should be required")
	}
	if p.Matches(fieldMap{"a": int64(1), "b": int64(3)}) {
		t.Error("sibling AND violated")
	}
}

func TestParseFilterErrors(t *testing.T) {
	bad := []map[string]any{
		{"$unknown": []any{}},
		{"$and": "not-an-array"},
		{"$not": "not-a-doc"},
		{"x": map[string]any{"$bogus": 1}},
		{"x": map[string]any{"$in": "not-an-array"}},
		{"x": map[string]any{"$exists": "yes"}},
	}
	for _, f := range bad {
		if _, err := ParseFilter(f); err == nil {
			t.Errorf("filter %v should fail to parse", f)
		}
	}
}

// inListJSON renders {"x": {op: [0, 1, …, n-1]}}.
func inListJSON(op string, n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprint(i)
	}
	return fmt.Sprintf(`{"x": {%q: [%s]}}`, op, strings.Join(vals, ","))
}

// nestedJSON renders n levels of combinator op around the filter inner:
// $not takes a filter document, $and and $or a one-element list.
func nestedJSON(op string, n int, inner string) string {
	open, close := `{"`+op+`": [`, `]}`
	if op == "$not" {
		open, close = `{"$not": `, `}`
	}
	return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
}

// TestParseLimits: a $in/$nin list of MaxInValues values and a filter
// nested MaxPredicateDepth deep parse; one more value or level is refused
// with an error naming the limit.
func TestParseLimits(t *testing.T) {
	const leaf, siblings = `{"a": 1}`, `{"a": 1, "b": 2}`
	for _, c := range []struct {
		name     string
		at, over string
		limit    int
	}{
		{"$in", inListJSON("$in", MaxInValues), inListJSON("$in", MaxInValues+1), MaxInValues},
		{"$nin", inListJSON("$nin", MaxInValues), inListJSON("$nin", MaxInValues+1), MaxInValues},
		{"$not", nestedJSON("$not", MaxPredicateDepth, leaf), nestedJSON("$not", MaxPredicateDepth+1, leaf), MaxPredicateDepth},
		{"$and", nestedJSON("$and", MaxPredicateDepth, leaf), nestedJSON("$and", MaxPredicateDepth+1, leaf), MaxPredicateDepth},
		{"$or", nestedJSON("$or", MaxPredicateDepth, leaf), nestedJSON("$or", MaxPredicateDepth+1, leaf), MaxPredicateDepth},
		// Sibling fields are an implicit $and: one level, as rendered.
		{"siblings", nestedJSON("$not", MaxPredicateDepth-1, siblings), nestedJSON("$not", MaxPredicateDepth, siblings), MaxPredicateDepth},
	} {
		if _, err := ParseJSON([]byte(c.at)); err != nil {
			t.Errorf("%s at the limit: %v", c.name, err)
		}
		_, err := ParseJSON([]byte(c.over))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("the limit is %d", c.limit)) {
			t.Errorf("%s past the limit: err = %v, want one naming the limit %d", c.name, err, c.limit)
		}
	}
}

func TestParseJSON(t *testing.T) {
	p, err := ParseJSON([]byte(`{"tags": {"$contains": "example"}, "rating": {"$gte": 10}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Matches(fieldMap{"tags": []any{"example"}, "rating": int64(11)}) {
		t.Error("parsed JSON filter should match")
	}
	if _, err := ParseJSON([]byte(`{`)); err == nil {
		t.Error("invalid JSON must error")
	}
	p2, err := ParseJSON(nil)
	if err != nil || !p2.Matches(fieldMap{}) {
		t.Error("empty filter should be True")
	}
	// Large integers must survive (UseNumber path).
	p3, err := ParseJSON([]byte(`{"n": 9007199254740993}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p3.Matches(fieldMap{"n": int64(9007199254740993)}) {
		t.Error("large int64 lost precision in parsing")
	}
}

// genPredicate builds random predicates from the builder API.
func genPredicate(r *rand.Rand, depth int) Predicate {
	if depth <= 0 {
		path := string(rune('a' + r.Intn(5)))
		switch r.Intn(6) {
		case 0:
			return Eq(path, int64(r.Intn(10)))
		case 1:
			return Ne(path, "x")
		case 2:
			return Gt(path, int64(r.Intn(10)))
		case 3:
			return Contains(path, "tag")
		case 4:
			return In(path, int64(1), int64(2))
		default:
			return Exists(path, r.Intn(2) == 0)
		}
	}
	switch r.Intn(3) {
	case 0:
		return AndOf(genPredicate(r, depth-1), genPredicate(r, depth-1))
	case 1:
		return OrOf(genPredicate(r, depth-1), genPredicate(r, depth-1))
	default:
		return NotOf(genPredicate(r, depth-1))
	}
}

func genFields(r *rand.Rand) map[string]any {
	m := map[string]any{}
	for _, p := range []string{"a", "b", "c", "d", "e"} {
		switch r.Intn(4) {
		case 0:
			m[p] = int64(r.Intn(10))
		case 1:
			m[p] = []any{"tag", int64(r.Intn(3))}
		case 2:
			m[p] = "x"
			// case 3: leave missing
		}
	}
	return m
}

// TestFilterDocumentRoundTrip: rendering a predicate to a filter document
// and re-parsing it yields a predicate with identical matching behaviour
// AND an identical canonical key — the property the client's deterministic
// URLs rely on.
func TestFilterDocumentRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(New("t", genPredicate(r, 2)))
			vs[1] = reflect.ValueOf(genFields(r))
		},
	}
	prop := func(q *Query, fields map[string]any) bool {
		fd := FilterDocument(q.Predicate)
		back, err := ParseFilter(fd)
		if err != nil {
			return false
		}
		q2 := New("t", back)
		if q.Key() != q2.Key() {
			return false
		}
		return q.Predicate.Matches(fieldMap(fields)) == back.Matches(fieldMap(fields))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestFilterDocumentTrue(t *testing.T) {
	if FilterDocument(True{}) != nil {
		t.Error("True must render as nil (empty filter)")
	}
	if FilterDocument(nil) != nil {
		t.Error("nil predicate must render as nil")
	}
}
