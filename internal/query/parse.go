package query

import (
	"fmt"
	"math"
	"strings"

	"quaestor/internal/document"
)

// Limits on what a filter may ask of the executor. Each $in/$nin value
// costs one index probe, and each combinator level one recursion of
// planning, matching and key rendering.
const (
	// MaxInValues is the longest $in or $nin list a filter may hold.
	MaxInValues = 1000
	// MaxPredicateDepth is the deepest nesting of $and, $or and $not a
	// filter may have. The implicit $and of sibling fields or operators
	// counts as a level, as it does once the filter is rendered back.
	MaxPredicateDepth = 32
)

// ParseFilter converts a MongoDB-style filter document into a Predicate.
//
// Supported forms:
//
//	{"tags": "example"}                      — equality (incl. array membership)
//	{"age": {"$gt": 30, "$lt": 50}}          — operator documents
//	{"tags": {"$contains": "example"}}       — array containment
//	{"$and": [f1, f2]}, {"$or": [...]}       — boolean combinators
//	{"$not": f}                              — negation
//
// Top-level sibling fields combine with AND, matching MongoDB. A filter
// nested deeper than MaxPredicateDepth, or with a $in/$nin list longer
// than MaxInValues, is refused.
func ParseFilter(filter map[string]any) (Predicate, error) {
	p, err := parseFilter(filter)
	if err != nil {
		return nil, err
	}
	if d := depth(p); d > MaxPredicateDepth {
		return nil, fmt.Errorf("query: filter nests $and/$or/$not %d deep; the limit is %d", d, MaxPredicateDepth)
	}
	return p, nil
}

// depth counts the combinator levels above p's deepest condition.
func depth(p Predicate) int {
	d := 0
	switch t := p.(type) {
	case *And:
		for _, c := range t.Children {
			d = max(d, depth(c))
		}
	case *Or:
		for _, c := range t.Children {
			d = max(d, depth(c))
		}
	case *Not:
		d = depth(t.Child)
	default:
		return 0
	}
	return d + 1
}

func parseFilter(filter map[string]any) (Predicate, error) {
	if len(filter) == 0 {
		return True{}, nil
	}
	var children []Predicate
	for key, raw := range filter {
		switch key {
		case "$and", "$or":
			list, ok := raw.([]any)
			if !ok {
				if lm, okM := raw.([]map[string]any); okM {
					list = make([]any, len(lm))
					for i, m := range lm {
						list[i] = m
					}
				} else {
					return nil, fmt.Errorf("query: %s expects an array, got %T", key, raw)
				}
			}
			subs := make([]Predicate, 0, len(list))
			for _, el := range list {
				sub, ok := el.(map[string]any)
				if !ok {
					return nil, fmt.Errorf("query: %s element must be a filter document, got %T", key, el)
				}
				p, err := parseFilter(sub)
				if err != nil {
					return nil, err
				}
				subs = append(subs, p)
			}
			if key == "$and" {
				children = append(children, &And{Children: subs})
			} else {
				children = append(children, &Or{Children: subs})
			}
		case "$not":
			sub, ok := raw.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("query: $not expects a filter document, got %T", raw)
			}
			p, err := parseFilter(sub)
			if err != nil {
				return nil, err
			}
			children = append(children, &Not{Child: p})
		default:
			if strings.HasPrefix(key, "$") {
				return nil, fmt.Errorf("query: unknown top-level operator %q", key)
			}
			p, err := parseFieldCondition(key, raw)
			if err != nil {
				return nil, err
			}
			children = append(children, p)
		}
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return &And{Children: children}, nil
}

func parseFieldCondition(path string, raw any) (Predicate, error) {
	opDoc, isDoc := raw.(map[string]any)
	if !isDoc || !hasOperatorKey(opDoc) {
		// Plain value: equality.
		return field(path, OpEq, document.Normalize(raw))
	}
	var children []Predicate
	for opName, val := range opDoc {
		op := Op(opName)
		switch op {
		case OpEq, OpNe, OpGt, OpGte, OpLt, OpLte, OpContains, OpPrefix, OpSize:
			f, err := field(path, op, document.Normalize(val))
			if err != nil {
				return nil, err
			}
			children = append(children, f)
		case OpIn, OpNin:
			norm := document.Normalize(val)
			list, ok := norm.([]any)
			if !ok {
				return nil, fmt.Errorf("query: %s on %q expects an array, got %T", op, path, val)
			}
			if len(list) > MaxInValues {
				return nil, fmt.Errorf("query: %s on %q lists %d values; the limit is %d", op, path, len(list), MaxInValues)
			}
			f, err := field(path, op, norm)
			if err != nil {
				return nil, err
			}
			children = append(children, f)
		case OpExists:
			b, ok := val.(bool)
			if !ok {
				return nil, fmt.Errorf("query: $exists on %q expects a bool, got %T", path, val)
			}
			children = append(children, &Field{Path: path, Op: OpExists, Value: b})
		default:
			return nil, fmt.Errorf("query: unknown operator %q on field %q", opName, path)
		}
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return &And{Children: children}, nil
}

// field builds one condition on a normalized value. It refuses numbers
// JSON cannot spell: a literal beyond float64's range decodes to ±Inf,
// which json.Marshal rejects, so no client could render the filter back
// into the query URL — and the query key — it came from.
func field(path string, op Op, v any) (Predicate, error) {
	if !finite(v) {
		return nil, fmt.Errorf("query: number out of range in %s on %q", op, path)
	}
	return &Field{Path: path, Op: op, Value: v}, nil
}

// finite reports whether a normalized value holds no ±Inf or NaN.
func finite(v any) bool {
	switch t := v.(type) {
	case float64:
		return !math.IsInf(t, 0) && !math.IsNaN(t)
	case []any:
		for _, e := range t {
			if !finite(e) {
				return false
			}
		}
	case map[string]any:
		for _, e := range t {
			if !finite(e) {
				return false
			}
		}
	}
	return true
}

func hasOperatorKey(m map[string]any) bool {
	for k := range m {
		if strings.HasPrefix(k, "$") {
			return true
		}
	}
	return false
}

// ParseJSON parses a JSON-encoded filter document into a Predicate: an
// object, or null or nothing for the match-all filter. It decodes in one
// pass (document.Decoder), so numbers read as the store reads them. Like
// every request body, data holds one JSON value: bytes after it other
// than whitespace are refused, and so is a number beyond float64's range
// anywhere in it.
func ParseJSON(data []byte) (Predicate, error) {
	if len(data) == 0 {
		return True{}, nil
	}
	dec := document.NewDecoder(data)
	v, err := dec.Value()
	if err == nil {
		err = dec.End()
	}
	if err != nil {
		return nil, fmt.Errorf("query: invalid filter JSON: %w", err)
	}
	m, ok := v.(map[string]any)
	if !ok && v != nil {
		return nil, fmt.Errorf("query: filter must be a JSON object, got %T", v)
	}
	return ParseFilter(m)
}

// Builder helpers — a fluent way to construct predicates in Go code.

// Eq matches documents whose field equals value.
func Eq(path string, value any) Predicate {
	return &Field{Path: path, Op: OpEq, Value: document.Normalize(value)}
}

// Ne matches documents whose field differs from value (or is missing).
func Ne(path string, value any) Predicate {
	return &Field{Path: path, Op: OpNe, Value: document.Normalize(value)}
}

// Gt matches documents whose field exceeds value.
func Gt(path string, value any) Predicate {
	return &Field{Path: path, Op: OpGt, Value: document.Normalize(value)}
}

// Gte matches documents whose field is at least value.
func Gte(path string, value any) Predicate {
	return &Field{Path: path, Op: OpGte, Value: document.Normalize(value)}
}

// Lt matches documents whose field is below value.
func Lt(path string, value any) Predicate {
	return &Field{Path: path, Op: OpLt, Value: document.Normalize(value)}
}

// Lte matches documents whose field is at most value.
func Lte(path string, value any) Predicate {
	return &Field{Path: path, Op: OpLte, Value: document.Normalize(value)}
}

// In matches documents whose field equals any of the values.
func In(path string, values ...any) Predicate {
	norm := make([]any, len(values))
	for i, v := range values {
		norm[i] = document.Normalize(v)
	}
	return &Field{Path: path, Op: OpIn, Value: norm}
}

// Contains matches documents whose array field contains value — the paper's
// running example `WHERE tags CONTAINS 'example'`.
func Contains(path string, value any) Predicate {
	return &Field{Path: path, Op: OpContains, Value: document.Normalize(value)}
}

// Exists matches documents in which the field is present (or absent).
func Exists(path string, present bool) Predicate {
	return &Field{Path: path, Op: OpExists, Value: present}
}

// Prefix matches documents whose string field starts with value.
func Prefix(path, value string) Predicate {
	return &Field{Path: path, Op: OpPrefix, Value: value}
}

// AndOf combines predicates conjunctively.
func AndOf(preds ...Predicate) Predicate { return &And{Children: preds} }

// OrOf combines predicates disjunctively.
func OrOf(preds ...Predicate) Predicate { return &Or{Children: preds} }

// NotOf negates a predicate.
func NotOf(p Predicate) Predicate { return &Not{Child: p} }

// Asc is an ascending sort key.
func Asc(path string) SortKey { return SortKey{Path: path} }

// Desc is a descending sort key.
func Desc(path string) SortKey { return SortKey{Path: path, Desc: true} }
