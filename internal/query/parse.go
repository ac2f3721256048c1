package query

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"quaestor/internal/document"
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
// Top-level sibling fields combine with AND, matching MongoDB.
func ParseFilter(filter map[string]any) (Predicate, error) {
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
				p, err := ParseFilter(sub)
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
			p, err := ParseFilter(sub)
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
			if _, ok := norm.([]any); !ok {
				return nil, fmt.Errorf("query: %s on %q expects an array, got %T", op, path, val)
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

// ParseJSON parses a JSON-encoded filter document into a Predicate.
func ParseJSON(data []byte) (Predicate, error) {
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
