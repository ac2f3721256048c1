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
	"slices"
	"sort"
	"strconv"
	"strings"

	"quaestor/internal/document"
)

// Predicate is a boolean condition over a document.
type Predicate interface {
	// Matches reports whether the document's fields satisfy the
	// predicate, reading only the paths it names.
	Matches(doc Fields) bool
	// canonical writes a deterministic representation used for query keys.
	canonical(sb *strings.Builder)
}

// Fields is what a predicate reads a document's fields through:
// *document.Document, whose text documents answer both methods off their
// text without decoding the body.
type Fields interface {
	// Get returns the value at a dotted path, as document.Document.Get.
	Get(path string) (any, bool)
	// Holds reports whether the path exists, whether its value equals v,
	// and whether it is an array with an element equal to v, as
	// document.Document.Holds.
	Holds(path string, v any) (found, equal, element bool)
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

// Matches implements Predicate. $eq, $ne and $contains ask Holds, which
// a text document answers off its text; the others read the value once
// through Get.
func (f *Field) Matches(doc Fields) bool {
	switch f.Op {
	case OpEq, OpNe:
		found, equal, element := doc.Holds(f.Path, f.Value)
		// Mongo semantics: a missing field satisfies $ne.
		return (found && eqLike(f.Value, equal, element)) == (f.Op == OpEq)
	case OpContains:
		_, _, element := doc.Holds(f.Path, f.Value)
		return element
	}
	v, ok := doc.Get(f.Path)
	switch f.Op {
	case OpExists:
		want, _ := f.Value.(bool)
		return ok == want
	case OpIn, OpNin:
		in := false
		list, _ := f.Value.([]any)
		for i := 0; ok && !in && i < len(list); i++ {
			equal, element := document.ValueHolds(v, list[i])
			in = eqLike(list[i], equal, element)
		}
		return in == (f.Op == OpIn)
	}
	if !ok {
		return false
	}
	switch f.Op {
	case OpGt:
		return comparableTypes(v, f.Value) && document.Compare(v, f.Value) > 0
	case OpGte:
		return comparableTypes(v, f.Value) && document.Compare(v, f.Value) >= 0
	case OpLt:
		return comparableTypes(v, f.Value) && document.Compare(v, f.Value) < 0
	case OpLte:
		return comparableTypes(v, f.Value) && document.Compare(v, f.Value) <= 0
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

// eqLike implements Mongo equality from Holds' answer about the queried
// value: either deep equality, or — when the stored value is an array
// and the query value is a scalar — array membership ({tags: "example"}
// matches tags:["example","music"]).
func eqLike(queried any, equal, element bool) bool {
	if equal {
		return true
	}
	_, qIsArr := queried.([]any)
	return element && !qIsArr
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
func (a *And) Matches(doc Fields) bool {
	for _, c := range a.Children {
		if !c.Matches(doc) {
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
func (o *Or) Matches(doc Fields) bool {
	for _, c := range o.Children {
		if c.Matches(doc) {
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
func (n *Not) Matches(doc Fields) bool { return !n.Child.Matches(doc) }

func (n *Not) canonical(sb *strings.Builder) {
	sb.WriteString("$not(")
	n.Child.canonical(sb)
	sb.WriteByte(')')
}

// True matches every document (an empty filter).
type True struct{}

// Matches implements Predicate.
func (True) Matches(Fields) bool { return true }

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
// ignoring order/limit clauses. It reads only the paths the predicate
// names (True reads none), so a text document is never decoded whole.
func (q *Query) Matches(doc *document.Document) bool {
	if doc == nil {
		return false
	}
	return q.Predicate.Matches(doc)
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
// deterministic. It reads each sort key of both documents; Sort and TopK,
// which compare one document many times, read its keys once.
func (q *Query) Less(a, b *document.Document) bool {
	for _, k := range q.OrderBy {
		av, _ := a.Get(k.Path)
		bv, _ := b.Get(k.Path)
		if c := k.compare(av, bv); c != 0 {
			return c < 0
		}
	}
	return a.ID < b.ID
}

// compare orders two values of the key's path in the key's direction.
func (k SortKey) compare(a, b any) int {
	c := document.Compare(a, b)
	if k.Desc {
		return -c
	}
	return c
}

// appendSortKeys appends the values of d at the query's ORDER BY paths.
func (q *Query) appendSortKeys(keys []any, d *document.Document) []any {
	for _, k := range q.OrderBy {
		v, _ := d.Get(k.Path)
		keys = append(keys, v)
	}
	return keys
}

// lessKeys is Less for documents whose sort keys were read already.
func (q *Query) lessKeys(a *document.Document, ak []any, b *document.Document, bk []any) bool {
	for i, k := range q.OrderBy {
		if c := k.compare(ak[i], bk[i]); c != 0 {
			return c < 0
		}
	}
	return a.ID < b.ID
}

// Sort sorts docs in the query's order (see Less), reading each
// document's sort keys once.
func (q *Query) Sort(docs []*document.Document) {
	n := len(q.OrderBy)
	if n == 0 {
		slices.SortFunc(docs, func(a, b *document.Document) int { return strings.Compare(a.ID, b.ID) })
		return
	}
	rows := sortRows{q: q, docs: docs, n: n, keys: make([]any, 0, n*len(docs))}
	for _, d := range docs {
		rows.keys = q.appendSortKeys(rows.keys, d)
	}
	sort.Sort(&rows)
}

// sortRows sorts documents by their sort keys, n per document in keys.
type sortRows struct {
	q    *Query
	docs []*document.Document
	keys []any
	n    int
}

func (r *sortRows) row(i int) []any { return r.keys[i*r.n : (i+1)*r.n] }

func (r *sortRows) Len() int { return len(r.docs) }

func (r *sortRows) Less(i, j int) bool {
	return r.q.lessKeys(r.docs[i], r.row(i), r.docs[j], r.row(j))
}

func (r *sortRows) Swap(i, j int) {
	r.docs[i], r.docs[j] = r.docs[j], r.docs[i]
	a, b := r.row(i), r.row(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
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
	q.Sort(out)
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
