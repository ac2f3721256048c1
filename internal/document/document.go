// Package document implements the value model for Quaestor's
// aggregate-oriented document store.
//
// Documents are rich nested records — the paper's "after-images" — modelled
// as JSON-like trees: maps, arrays, strings, numbers, booleans and null.
// The package provides deep copy, deep equality, a total ordering used by
// sorted queries, dotted field-path access, and a canonical encoding that
// query normalization and cache keys rely on.
package document

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Document is a single database record. The zero value is an empty document.
//
// Field values may be: nil, bool, int64, float64, string, []any and
// map[string]any (arbitrarily nested). Use Normalize to coerce arbitrary
// numeric types (int, float32, json.Number, ...) into this canonical set.
//
// How the fields are held: a document built in Go (New, a Clone) or
// decoded by Decoder.Document (the SDK's reads, UnmarshalJSON) holds
// them in Fields. A document the server decodes from a request, a log
// record or a snapshot frame (Decoder.DocumentText), and an update's
// after-image (Draft), is a text document: it keeps its JSON text,
// Fields stays nil, and no field value is kept — Get decodes the one
// value a path names, Holds and IndexKeys read match keys off the text,
// and Body decodes the whole text on each call. A loaded text's first
// AppendJSON once sealed yields the wire form, which replaces the text
// (usually it is the text), and a Draft's text is the wire form from
// the start, so a text document holds one encoding. Readers that may
// meet either kind read through Get, Holds and Body.
//
// Ownership: a document is mutable only until it is handed over. One
// passed to a write (store.Store.Put/Insert, cluster.Router.Put/Insert,
// server.Server.Put/Insert, client.Tx.Put) belongs to the callee from
// then on; the caller neither mutates nor reuses it. Every document the
// store, the server or the SDK returns (reads, query results, cursor
// emissions, an update's after-image, change events, browser-cache
// copies) is shared and read-only. Writers are copy-on-write: they
// Clone (or Draft), change the copy and store it in the original's
// place. So a pointer once handed out never changes, and it may be
// retained, encoded and compared without a lock. The store Seals every document
// it keeps, so a stored document's wire form (AppendJSON) is built once
// and then copied; a document that is not sealed still belongs to its
// caller and is encoded afresh each time.
//
// A Document must not be copied by value: pass *Document, or Clone.
type Document struct {
	// ID is the primary key, unique within a table.
	ID string
	// Version is a monotonically increasing per-record version counter,
	// used for ETags and monotonic-read tracking.
	Version int64
	// Fields holds the document body, except for a text document's
	// (nil): read it through Body.
	Fields map[string]any

	// wire is nil until Seal, then unencoded until the first AppendJSON
	// installs the encoding (see json.go); a text document's holds its
	// text from the start (see text.go).
	wire atomic.Pointer[wireForm]
}

// New returns a document with the given id and a normalized copy of fields.
func New(id string, fields map[string]any) *Document {
	return &Document{ID: id, Version: 1, Fields: normalizeMap(fields)}
}

// Clone returns a deep copy of the document, with its fields in Fields.
// Mutating the clone never affects the original: it is how a writer
// derives a new version from a read-only one (see Document's ownership
// rule). The clone of a text document is a decode of its text.
func (d *Document) Clone() *Document {
	if d == nil {
		return nil
	}
	if w := d.textForm(); w != nil {
		return &Document{ID: d.ID, Version: d.Version, Fields: decodeText(w.bytes)}
	}
	return &Document{ID: d.ID, Version: d.Version, Fields: CloneValue(d.Fields).(map[string]any)}
}

// Get returns the value at a dotted field path ("author.name",
// "comments.0.text"). The boolean reports whether the path exists. A text
// document decodes that value alone.
func (d *Document) Get(path string) (any, bool) {
	if d == nil {
		return nil, false
	}
	if w := d.textForm(); w != nil && path != "" {
		return lookupText(w.bytes, path)
	}
	return GetPath(d.Body(), path)
}

// Set assigns a value at a dotted field path, creating intermediate maps as
// needed. It returns an error when the path traverses a non-container value.
func (d *Document) Set(path string, value any) error {
	d.ownFields()
	if d.Fields == nil {
		d.Fields = map[string]any{}
	}
	return SetPath(d.Fields, path, Normalize(value))
}

// Delete removes the value at a dotted field path. Missing paths are no-ops.
func (d *Document) Delete(path string) {
	d.ownFields()
	DeletePath(d.Fields, path)
}

// Equal reports whether two documents have the same id and deeply equal
// fields. Versions are ignored: equality is about content.
func (d *Document) Equal(other *Document) bool {
	if d == nil || other == nil {
		return d == other
	}
	return d.ID == other.ID && DeepEqual(d.Body(), other.Body())
}

// Normalize coerces a value into the canonical type set:
// nil, bool, int64, float64, string, []any, map[string]any.
func Normalize(v any) any {
	switch t := v.(type) {
	case nil, bool, int64, float64, string:
		return t
	case int:
		return int64(t)
	case int8:
		return int64(t)
	case int16:
		return int64(t)
	case int32:
		return int64(t)
	case uint:
		return int64(t)
	case uint8:
		return int64(t)
	case uint16:
		return int64(t)
	case uint32:
		return int64(t)
	case uint64:
		return int64(t)
	case float32:
		return float64(t)
	case json.Number:
		if iv, err := t.Int64(); err == nil {
			return iv
		}
		fv, _ := t.Float64()
		return fv
	case []string:
		out := make([]any, len(t))
		for i, s := range t {
			out[i] = s
		}
		return out
	case []int:
		out := make([]any, len(t))
		for i, n := range t {
			out[i] = int64(n)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = Normalize(e)
		}
		return out
	case map[string]any:
		return normalizeMap(t)
	default:
		// Fall back to the string representation so unexpected types do
		// not silently break equality; this should not happen in practice.
		return fmt.Sprintf("%v", t)
	}
}

func normalizeMap(m map[string]any) map[string]any {
	if m == nil {
		return map[string]any{}
	}
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = Normalize(v)
	}
	return out
}

// CloneValue deep-copies any canonical value.
func CloneValue(v any) any {
	switch t := v.(type) {
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = CloneValue(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = CloneValue(e)
		}
		return out
	default:
		return t
	}
}

// DeepEqual reports deep equality of two canonical values. Numeric values
// compare across int64/float64 (1 == 1.0), matching MongoDB semantics.
func DeepEqual(a, b any) bool {
	return Compare(a, b) == 0
}

// typeRank assigns a BSON-like total order across types so heterogeneous
// values sort deterministically: null < numbers < strings < maps < arrays < bools.
func typeRank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case int64, float64:
		return 1
	case string:
		return 2
	case map[string]any:
		return 3
	case []any:
		return 4
	case bool:
		return 5
	default:
		return 6
	}
}

// Compare imposes a total order on canonical values: -1 if a < b, 0 if
// equal, +1 if a > b. Numbers compare numerically across integer/float.
func Compare(a, b any) int {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch av := a.(type) {
	case nil:
		return 0
	case int64:
		return compareNumbers(float64(av), toFloat(b))
	case float64:
		return compareNumbers(av, toFloat(b))
	case string:
		return strings.Compare(av, b.(string))
	case bool:
		bv := b.(bool)
		switch {
		case av == bv:
			return 0
		case !av:
			return -1
		default:
			return 1
		}
	case []any:
		bv := b.([]any)
		for i := 0; i < len(av) && i < len(bv); i++ {
			if c := Compare(av[i], bv[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(av) == len(bv):
			return 0
		case len(av) < len(bv):
			return -1
		default:
			return 1
		}
	case map[string]any:
		bv := b.(map[string]any)
		ka, kb := sortedKeys(av), sortedKeys(bv)
		for i := 0; i < len(ka) && i < len(kb); i++ {
			if c := strings.Compare(ka[i], kb[i]); c != 0 {
				return c
			}
			if c := Compare(av[ka[i]], bv[kb[i]]); c != 0 {
				return c
			}
		}
		switch {
		case len(ka) == len(kb):
			return 0
		case len(ka) < len(kb):
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

func compareNumbers(a, b float64) int {
	// NaN sorts before every other number and equal to itself. Without
	// this, NaN would compare equal to everything (both < and > are
	// false), making the order non-transitive and DeepEqual(NaN, x) true
	// for any number — which would break sorting and index-key agreement.
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return -1
	case bNaN:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func toFloat(v any) float64 {
	switch t := v.(type) {
	case int64:
		return float64(t)
	case float64:
		return t
	default:
		return 0
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GetPath resolves a dotted path against a canonical value tree. Numeric
// path segments index into arrays.
func GetPath(root any, path string) (any, bool) {
	if path == "" {
		return root, true
	}
	cur := root
	for rest, more := path, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, ".")
		switch node := cur.(type) {
		case map[string]any:
			v, ok := node[seg]
			if !ok {
				return nil, false
			}
			cur = v
		case []any:
			idx, err := strconv.Atoi(seg)
			if err != nil || idx < 0 || idx >= len(node) {
				return nil, false
			}
			cur = node[idx]
		default:
			return nil, false
		}
	}
	return cur, true
}

// SetPath assigns value at a dotted path inside root, creating intermediate
// maps as required. Array segments must already exist and be in range.
func SetPath(root map[string]any, path string, value any) error {
	var cur any = root
	for rest, more := path, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, ".")
		last := !more
		switch node := cur.(type) {
		case map[string]any:
			if last {
				node[seg] = value
				return nil
			}
			next, ok := node[seg]
			if !ok {
				m := map[string]any{}
				node[seg] = m
				cur = m
				continue
			}
			cur = next
		case []any:
			idx, err := strconv.Atoi(seg)
			if err != nil || idx < 0 || idx >= len(node) {
				return fmt.Errorf("document: bad array index %q in path %q", seg, path)
			}
			if last {
				node[idx] = value
				return nil
			}
			cur = node[idx]
		default:
			return fmt.Errorf("document: path %q traverses non-container at %q", path, seg)
		}
	}
	return nil
}

// DeletePath removes the value at a dotted path. Missing paths are no-ops.
func DeletePath(root map[string]any, path string) {
	var cur any = root
	for rest, more := path, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, ".")
		last := !more
		switch node := cur.(type) {
		case map[string]any:
			if last {
				delete(node, seg)
				return
			}
			next, ok := node[seg]
			if !ok {
				return
			}
			cur = next
		case []any:
			idx, err := strconv.Atoi(seg)
			if err != nil || idx < 0 || idx >= len(node) {
				return
			}
			if last {
				node[idx] = nil
				return
			}
			cur = node[idx]
		default:
			return
		}
	}
}

// Canonical returns a deterministic string encoding of a canonical value:
// map keys are sorted, numbers print minimally. Values that print the same
// compare as equal, but the converse does not hold for int64 values beyond
// float64's exact integer range (±2^53): Compare folds numerics through
// float64, so e.g. 1<<60 and (1<<60)+1 are DeepEqual yet print differently.
// Use MatchKey where the key must agree exactly with Compare equality.
func Canonical(v any) string {
	var buf [64]byte
	return string(appendCanonical(buf[:0], v, false))
}

// MatchKey returns a deterministic string encoding under which two values
// share a key if and only if they Compare as equal. It differs from
// Canonical only on huge int64s (and values nesting them), which are
// folded through float64 the same way Compare folds them. Hash-index
// postings and InvaliDB query postings use it so probe completeness
// matches the document model's equality semantics.
func MatchKey(v any) string {
	var buf [64]byte
	return string(AppendMatchKey(buf[:0], v))
}

// AppendMatchKey appends MatchKey(v) to dst. A caller that only looks a
// key up (m[string(key)]) allocates nothing.
func AppendMatchKey(dst []byte, v any) []byte { return appendCanonical(dst, v, true) }

// appendCanonicalFloat appends Canonical(f).
func appendCanonicalFloat(dst []byte, f float64) []byte {
	if f == float64(int64(f)) {
		// Integral floats print like integers so 1.0 and 1 share a key.
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendCanonical appends Canonical(v), or MatchKey(v) when match is set.
func appendCanonical(dst []byte, v any, match bool) []byte {
	switch t := v.(type) {
	case nil:
		return append(dst, "null"...)
	case bool:
		return strconv.AppendBool(dst, t)
	case int64:
		if match {
			return appendCanonicalFloat(dst, float64(t))
		}
		return strconv.AppendInt(dst, t, 10)
	case float64:
		return appendCanonicalFloat(dst, t)
	case string:
		return strconv.AppendQuote(dst, t)
	case []any:
		dst = append(dst, '[')
		for i, e := range t {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendCanonical(dst, e, match)
		}
		return append(dst, ']')
	case map[string]any:
		dst = append(dst, '{')
		for i, k := range sortedKeys(t) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendQuote(dst, k)
			dst = append(dst, ':')
			dst = appendCanonical(dst, t[k], match)
		}
		return append(dst, '}')
	default:
		return fmt.Appendf(dst, "%v", t)
	}
}
