package document

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"unicode/utf8"
)

// wireForm is a sealed document's encoding at one Version, or a text
// document's state (see text.go). Every transition installs a new one,
// but for the sealing of a raw text, which its owner does before anyone
// else reads the document.
type wireForm struct {
	version int64
	bytes   []byte
	// text says the document's fields come from bytes, read on each use;
	// raw that bytes are still the text the document arrived in, canon
	// that bytes are in wire form but perhaps for the values of "_id" and
	// "_version", and sealed that the raw text's document was sealed.
	text, raw, canon bool
	sealed           atomic.Bool
}

// unencoded marks a sealed document not yet encoded.
var unencoded = new(wireForm)

// Seal declares d immutable from now on (Document's ownership
// rule), so AppendJSON may build its wire form once and copy it after.
// The store seals every document it keeps. Sealing twice is harmless: an
// in-process replica seals the pointers it shares with its primary.
func (d *Document) Seal() {
	if w := d.textForm(); w != nil {
		w.sealed.Store(true) // read only while the text is raw
		return
	}
	d.wire.CompareAndSwap(nil, unencoded)
}

// EncodedLen returns the length of the encoding d holds — its wire form,
// or a text document's text — or 0 when it holds none. Writers size
// buffers by it.
func (d *Document) EncodedLen() int {
	if w := d.wire.Load(); w != nil {
		return len(w.bytes)
	}
	return 0
}

// AppendJSON appends the document's wire representation to dst: the body
// fields plus "_id" and "_version" as one JSON object. The bytes are exactly
// what encoding/json produces for that object as a map[string]any (keys
// sorted bytewise, HTML-safe string escaping, ES6 number formatting), so
// ETags, caches and clients cannot tell the encoders apart — but the
// document is walked directly: no copy into a scratch map, no reflection
// and no second pass. The document is only read, so shared store
// documents can be encoded as-is, concurrently.
//
// A sealed document is walked once per Version; later calls copy the
// bytes. The version is part of the key because a store stamps Version on
// the document it is handed, which may have been sealed by another store.
// A text document's wire form comes from its text, which is usually in
// that form already, and replaces the text once the document is sealed.
//
// Like encoding/json, it fails on NaN and ±Inf; dst is then returned
// unextended.
func (d *Document) AppendJSON(dst []byte) ([]byte, error) {
	if d == nil {
		return append(dst, "null"...), nil
	}
	w := d.wire.Load()
	if w == nil {
		return d.appendJSON(dst)
	}
	if w != unencoded && !w.raw && w.version == d.Version {
		return append(dst, w.bytes...), nil
	}
	if w.text {
		version := d.Version
		out, same, err := appendText(dst, w, d.ID, version)
		if err == nil && (w.sealed.Load() || !w.raw) {
			wire := w.bytes
			if !same {
				wire = slices.Clone(out[len(dst):])
			}
			d.installWire(w, wire, version)
		}
		return out, err
	}
	out, err := d.appendJSON(dst)
	if err == nil {
		d.wire.CompareAndSwap(w, &wireForm{version: d.Version, bytes: slices.Clone(out[len(dst):])})
	}
	return out, err
}

func (d *Document) appendJSON(dst []byte) ([]byte, error) {
	var scratch [16]string
	keys := scratch[:0]
	for k := range d.Fields {
		if k != "_id" && k != "_version" {
			keys = append(keys, k)
		}
	}
	keys = append(keys, "_id", "_version")
	slices.Sort(keys)

	out := append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			out = append(out, ',')
		}
		out = AppendJSONString(out, k)
		out = append(out, ':')
		switch k {
		case "_id":
			out = AppendJSONString(out, d.ID)
		case "_version":
			out = strconv.AppendInt(out, d.Version, 10)
		default:
			var err error
			if out, err = appendJSONValue(out, d.Fields[k]); err != nil {
				return dst, err
			}
		}
	}
	return append(out, '}'), nil
}

// MarshalJSON encodes the document in its wire representation.
func (d *Document) MarshalJSON() ([]byte, error) {
	return d.AppendJSON(nil)
}

// appendJSONValue appends one field value. Canonical values (see Document)
// are encoded directly; anything else a caller put into Fields without
// Normalize goes through encoding/json, whose output for a nested value is
// the same bytes it would have produced in place.
func appendJSONValue(dst []byte, v any) ([]byte, error) {
	switch t := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		return strconv.AppendBool(dst, t), nil
	case int64:
		return strconv.AppendInt(dst, t, 10), nil
	case float64:
		return appendJSONFloat(dst, t)
	case string:
		return AppendJSONString(dst, t), nil
	case []any:
		if t == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, e := range t {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendJSONValue(dst, e); err != nil {
				return dst, err
			}
		}
		return append(dst, ']'), nil
	case map[string]any:
		if t == nil {
			return append(dst, "null"...), nil
		}
		var scratch [8]string
		keys := scratch[:0]
		for k := range t {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, k)
			dst = append(dst, ':')
			var err error
			if dst, err = appendJSONValue(dst, t[k]); err != nil {
				return dst, err
			}
		}
		return append(dst, '}'), nil
	default:
		b, err := json.Marshal(t)
		if err != nil {
			return dst, err
		}
		return append(dst, b...), nil
	}
}

// appendJSONFloat formats f as encoding/json does: ES6 number-to-string
// conversion ('f' form inside [1e-6, 1e21), else 'e' form with the
// exponent's padding zero removed).
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("document: unsupported JSON value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal with encoding/json's
// default (HTML-safe) escaping: control characters, '"', '\\', '<', '>' and
// '&' are escaped, invalid UTF-8 becomes U+FFFD, and U+2028/U+2029 are
// escaped for JSONP safety.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
