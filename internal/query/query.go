// Package query implements the MongoDB-style query language that Quaestor
// caches and InvaliDB matches against record after-images.
//
// A Query combines a boolean Predicate over document fields (any nesting of
// $and/$or/$not around field operators) with optional ORDER BY / LIMIT /
// OFFSET clauses. Queries normalize to a canonical string — the paper's
// "normalized query string" — which serves as the cache key and the
// Expiring Bloom Filter key.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"quaestor/internal/document"
)

// Predicate is a boolean condition over a document.
type Predicate interface {
	// Matches reports whether the document's fields satisfy the predicate.
	Matches(fields map[string]any) bool
	// canonical writes a deterministic representation used for query keys.
	canonical(sb *strings.Builder)
}

// Op enumerates the supported comparison operators.
type Op string

// Supported field operators, mirroring MongoDB's query operators.
const (
	OpEq       Op = "$eq"       // field equals value (deep equality)
	OpNe       Op = "$ne"       // field differs from value
	OpGt       Op = "$gt"       // field greater than value
	OpGte      Op = "$gte"      // field greater than or equal
	OpLt       Op = "$lt"       // field less than value
	OpLte      Op = "$lte"      // field less than or equal
	OpIn       Op = "$in"       // field equals any of the listed values
	OpNin      Op = "$nin"      // field equals none of the listed values
	OpExists   Op = "$exists"   // field presence check (value is bool)
	OpContains Op = "$contains" // array field contains value (CONTAINS in the paper)
	OpSize     Op = "$size"     // array field has exactly N elements
	OpPrefix   Op = "$prefix"   // string field starts with value
)

// Field is a single-field comparison such as {tags: {$contains: "example"}}.
type Field struct {
	Path  string // dotted field path
	Op    Op
	Value any // normalized canonical value ([]any for $in/$nin)
}

// Matches implements Predicate.
func (f *Field) Matches(fields map[string]any) bool {
	v, ok := document.GetPath(fields, f.Path)
	switch f.Op {
	case OpExists:
		want, _ := f.Value.(bool)
		return ok == want
	case OpNe:
		// Mongo semantics: a missing field satisfies $ne.
		if !ok {
			return true
		}
		return !matchEqLike(v, f.Value)
	case OpNin:
		if !ok {
			return true
		}
		list, _ := f.Value.([]any)
		for _, cand := range list {
			if matchEqLike(v, cand) {
				return false
			}
		}
		return true
	}
	if !ok {
		return false
	}
	switch f.Op {
	case OpEq:
		return matchEqLike(v, f.Value)
	case OpGt:
		return comparableTypes(v, f.Value) && document.Compare(v, f.Value) > 0
	case OpGte:
		return comparableTypes(v, f.Value) && document.Compare(v, f.Value) >= 0
	case OpLt:
		return comparableTypes(v, f.Value) && document.Compare(v, f.Value) < 0
	case OpLte:
		return comparableTypes(v, f.Value) && document.Compare(v, f.Value) <= 0
	case OpIn:
		list, _ := f.Value.([]any)
		for _, cand := range list {
			if matchEqLike(v, cand) {
				return true
			}
		}
		return false
	case OpContains:
		arr, isArr := v.([]any)
		if !isArr {
			return false
		}
		for _, e := range arr {
			if document.DeepEqual(e, f.Value) {
				return true
			}
		}
		return false
	case OpSize:
		arr, isArr := v.([]any)
		if !isArr {
			return false
		}
		n, okN := toInt(f.Value)
		return okN && int64(len(arr)) == n
	case OpPrefix:
		s, okS := v.(string)
		p, okP := f.Value.(string)
		return okS && okP && strings.HasPrefix(s, p)
	default:
		return false
	}
}

// matchEqLike implements Mongo equality: either deep equality, or — when the
// stored value is an array and the query value is a scalar — array
// membership ({tags: "example"} matches tags:["example","music"]).
func matchEqLike(stored, queried any) bool {
	if document.DeepEqual(stored, queried) {
		return true
	}
	if arr, ok := stored.([]any); ok {
		if _, qIsArr := queried.([]any); !qIsArr {
			for _, e := range arr {
				if document.DeepEqual(e, queried) {
					return true
				}
			}
		}
	}
	return false
}

// comparableTypes guards range operators against cross-type comparisons
// (e.g. {age: {$gt: 5}} must not match age:"ten" just because of type rank).
func comparableTypes(a, b any) bool {
	isNum := func(v any) bool {
		switch v.(type) {
		case int64, float64:
			return true
		}
		return false
	}
	if isNum(a) && isNum(b) {
		return true
	}
	_, as := a.(string)
	_, bs := b.(string)
	return as && bs
}

func toInt(v any) (int64, bool) {
	switch t := v.(type) {
	case int64:
		return t, true
	case float64:
		return int64(t), true
	}
	return 0, false
}

func (f *Field) canonical(sb *strings.Builder) {
	sb.WriteString(strconv.Quote(f.Path))
	sb.WriteByte(':')
	sb.WriteString(string(f.Op))
	sb.WriteByte(':')
	sb.WriteString(document.Canonical(f.Value))
}

// And is the conjunction of its children.
type And struct{ Children []Predicate }

// Matches implements Predicate.
func (a *And) Matches(fields map[string]any) bool {
	for _, c := range a.Children {
		if !c.Matches(fields) {
			return false
		}
	}
	return true
}

func (a *And) canonical(sb *strings.Builder) {
	writeCompound(sb, "$and", a.Children)
}

// Or is the disjunction of its children.
type Or struct{ Children []Predicate }

// Matches implements Predicate.
func (o *Or) Matches(fields map[string]any) bool {
	for _, c := range o.Children {
		if c.Matches(fields) {
			return true
		}
	}
	return false
}

func (o *Or) canonical(sb *strings.Builder) {
	writeCompound(sb, "$or", o.Children)
}

// Not negates its child.
type Not struct{ Child Predicate }

// Matches implements Predicate.
func (n *Not) Matches(fields map[string]any) bool { return !n.Child.Matches(fields) }

func (n *Not) canonical(sb *strings.Builder) {
	sb.WriteString("$not(")
	n.Child.canonical(sb)
	sb.WriteByte(')')
}

// True matches every document (an empty filter).
type True struct{}

// Matches implements Predicate.
func (True) Matches(map[string]any) bool { return true }

func (True) canonical(sb *strings.Builder) { sb.WriteString("$true") }

func writeCompound(sb *strings.Builder, op string, children []Predicate) {
	parts := make([]string, len(children))
	for i, c := range children {
		var csb strings.Builder
		c.canonical(&csb)
		parts[i] = csb.String()
	}
	// Sorting makes AND/OR commutative in the canonical form so that
	// logically identical queries share one cache entry.
	sort.Strings(parts)
	sb.WriteString(op)
	sb.WriteByte('(')
	for i, p := range parts {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p)
	}
	sb.WriteByte(')')
}

// SortKey is one ORDER BY component.
type SortKey struct {
	Path string
	Desc bool
}

// Query is a complete cacheable query against a single table.
type Query struct {
	Table     string
	Predicate Predicate
	OrderBy   []SortKey
	Limit     int // 0 means unlimited
	Offset    int

	key string // memoized canonical key
}

// New builds a query over table with the given predicate. A nil predicate
// matches every document.
func New(table string, pred Predicate) *Query {
	if pred == nil {
		pred = True{}
	}
	return &Query{Table: table, Predicate: pred}
}

// Sorted returns a copy of q with the given ORDER BY keys.
func (q *Query) Sorted(keys ...SortKey) *Query {
	cp := *q
	cp.OrderBy = keys
	cp.key = ""
	return &cp
}

// Sliced returns a copy of q with LIMIT/OFFSET applied.
func (q *Query) Sliced(offset, limit int) *Query {
	cp := *q
	cp.Offset = offset
	cp.Limit = limit
	cp.key = ""
	return &cp
}

// Stateful reports whether the query needs order-related result state in
// the invalidation pipeline (Section 4.1 "Managing Query State"): any
// ORDER BY, LIMIT or OFFSET clause makes the matching status of one record
// dependent on other records.
func (q *Query) Stateful() bool {
	return len(q.OrderBy) > 0 || q.Limit > 0 || q.Offset > 0
}

// Matches reports whether a single document satisfies the predicate,
// ignoring order/limit clauses.
func (q *Query) Matches(doc *document.Document) bool {
	if doc == nil {
		return false
	}
	return Match(q.Predicate, doc)
}

// Match reports whether doc satisfies p, reading doc's fields through
// its accessor: True reads none, so a stored document it passes stays
// undecoded.
func Match(p Predicate, doc *document.Document) bool {
	if _, all := p.(True); all {
		return true
	}
	return p.Matches(doc.Body())
}

// Key returns the normalized query string: a deterministic canonical
// representation used as the cache key, the EBF key and the InvaliDB
// query id. Logically identical queries produce identical keys.
func (q *Query) Key() string {
	if q.key != "" {
		return q.key
	}
	var sb strings.Builder
	sb.WriteString("q:")
	sb.WriteString(q.Table)
	sb.WriteByte('/')
	q.Predicate.canonical(&sb)
	if len(q.OrderBy) > 0 {
		sb.WriteString("/sort:")
		for i, k := range q.OrderBy {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(k.Path)
			if k.Desc {
				sb.WriteString(":desc")
			} else {
				sb.WriteString(":asc")
			}
		}
	}
	if q.Offset > 0 {
		fmt.Fprintf(&sb, "/offset:%d", q.Offset)
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, "/limit:%d", q.Limit)
	}
	q.key = sb.String()
	return q.key
}

// String implements fmt.Stringer.
func (q *Query) String() string { return q.Key() }

// Less orders two documents according to the query's ORDER BY clause, with
// the document id as the final tie-breaker so result order is total and
// deterministic.
func (q *Query) Less(a, b *document.Document) bool {
	for _, k := range q.OrderBy {
		av, _ := a.Get(k.Path)
		bv, _ := b.Get(k.Path)
		c := document.Compare(av, bv)
		if c != 0 {
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
	}
	return a.ID < b.ID
}

// Apply evaluates the full query against a set of candidate documents:
// filter, sort, offset, limit. It returns fresh slices; the input is not
// modified. Documents are not cloned.
func (q *Query) Apply(docs []*document.Document) []*document.Document {
	out := make([]*document.Document, 0, len(docs))
	for _, d := range docs {
		if q.Matches(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return q.Less(out[i], out[j]) })
	if q.Offset > 0 {
		if q.Offset >= len(out) {
			return nil
		}
		out = out[q.Offset:]
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}
