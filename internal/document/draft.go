package document

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// A Draft is a writer's private next version of a document: what an
// update reads and changes (Get, Set, Delete, with Document's semantics)
// before the store installs it as Document. A draft of a text document
// in wire form splices each change into a private copy of the text, at
// the path the decoder's locate finds, in the encoding AppendJSON writes,
// so the text stays the wire form and no body is decoded. Any other
// draft holds a private copy of the fields, and so does a spliced one
// from a change the text cannot take (a path under "_id" or "_version",
// which are not fields of a text, or a value with no encoding); either
// is encoded once by Document.
type Draft struct {
	id      string
	version int64
	// text is the wire form at version while the draft splices; fields
	// replaces it (text nil) once it does not.
	text   []byte
	fields map[string]any
	val    []byte // scratch: a value's encoding, or a member to insert
}

// Draft starts d's next version, at version: a private copy of d that
// belongs to the caller. d is only read.
func (d *Document) Draft(version int64) *Draft {
	dr := &Draft{id: d.ID, version: version}
	switch w := d.textForm(); {
	case w != nil && w.canon:
		dr.text = withIdentity(w.bytes, d.ID, version)
	case w != nil:
		dr.fields = decodeText(w.bytes)
	default:
		dr.fields = CloneValue(d.Fields).(map[string]any)
	}
	return dr
}

// withIdentity returns a copy of text, which is in wire form but perhaps
// for the values of "_id" and "_version", holding id and version there:
// the wire form at version, in a slice of its own length.
func withIdentity(text []byte, id string, version int64) []byte {
	idStart, idEnd, versionStart, versionEnd := identityAt(text)
	var buf [64]byte
	ident := AppendJSONString(buf[:0], id)
	idLen := len(ident)
	ident = strconv.AppendInt(ident, version, 10)
	out := make([]byte, 0, len(text)-(idEnd-idStart)-(versionEnd-versionStart)+len(ident))
	out = append(out, text[:idStart]...)
	out = append(out, ident[:idLen]...)
	out = append(out, text[idEnd:versionStart]...)
	out = append(out, ident[idLen:]...)
	return append(out, text[versionEnd:]...)
}

// Get returns the value at a dotted path of the draft, as Document.Get.
func (dr *Draft) Get(path string) (any, bool) {
	if dr.fields != nil {
		return GetPath(dr.fields, path)
	}
	if path == "" {
		return decodeText(dr.text), true
	}
	return lookupText(dr.text, path)
}

// Set assigns a value at a dotted path, as Document.Set.
func (dr *Draft) Set(path string, value any) error {
	value = Normalize(value)
	if dr.fields == nil {
		enc, err := appendJSONValue(dr.val[:0], value)
		if err == nil {
			dr.val = enc
			if spliced, err := dr.spliceSet(path); spliced || err != nil {
				return err
			}
		}
		dr.decode()
	}
	return SetPath(dr.fields, path, value)
}

// Delete removes the value at a dotted path, as Document.Delete.
func (dr *Draft) Delete(path string) {
	if dr.fields == nil {
		dr.spliceDelete(path)
		return
	}
	DeletePath(dr.fields, path)
}

// Document returns the draft's document, which the caller owns: a text
// document in wire form at the draft's version, holding the draft's own
// text, so the draft is not changed after. A draft whose fields have no
// encoding (NaN, ±Inf) stays a document with Fields, which AppendJSON
// refuses.
func (dr *Draft) Document() *Document {
	doc := &Document{ID: dr.id, Version: dr.version}
	text := dr.text
	if dr.fields != nil {
		doc.Fields = dr.fields
		out, err := doc.appendJSON(dr.val[:0])
		if err != nil {
			return doc
		}
		doc.Fields, text = nil, bytes.Clone(out)
	}
	doc.wire.Store(&wireForm{version: dr.version, bytes: text, text: true, canon: true})
	return doc
}

// decode turns a splicing draft into one holding its fields.
func (dr *Draft) decode() {
	dr.fields, dr.text = decodeText(dr.text), nil
}

// spliceSet splices dr.val, the encoding of the value Set assigns, in at
// path, or reports spliced false for a path under "_id" or "_version".
// It refuses what SetPath refuses, in its words.
func (dr *Draft) spliceSet(path string) (spliced bool, err error) {
	text, off := dr.text, 0
	for rest, more, top := path, true, true; more; top = false {
		var seg string
		seg, rest, more = strings.Cut(rest, ".")
		switch text[off] {
		case '{':
			if top && (seg == "_id" || seg == "_version") {
				return false, nil
			}
			m := findSorted(text, off, seg)
			if m.found {
				if more {
					off = m.val
					continue
				}
				dr.text = splice(text, m.val, m.end, dr.val)
				return true, nil
			}
			// A missing member is created, with an object for each
			// segment left: the member SetPath would make.
			ins := AppendJSONString(nil, seg)
			ins = append(ins, ':')
			nested := 0
			for more {
				seg, rest, more = strings.Cut(rest, ".")
				ins = AppendJSONString(append(ins, '{'), seg)
				ins = append(ins, ':')
				nested++
			}
			ins = append(ins, dr.val...)
			ins = append(ins, strings.Repeat("}", nested)...)
			switch {
			case m.prevEnd > 0:
				dr.text = splice(text, m.prevEnd, m.prevEnd, append([]byte{','}, ins...))
			case text[off+1] == '}':
				dr.text = splice(text, off+1, off+1, ins)
			default:
				dr.text = splice(text, off+1, off+1, append(ins, ','))
			}
			return true, nil
		case '[':
			at, end, ok := elementAt(text, off, seg)
			if !ok {
				return true, fmt.Errorf("document: bad array index %q in path %q", seg, path)
			}
			if !more {
				dr.text = splice(text, at, end, dr.val)
				return true, nil
			}
			off = at
		default:
			return true, fmt.Errorf("document: path %q traverses non-container at %q", path, seg)
		}
	}
	return true, nil
}

// spliceDelete removes the value at path as DeletePath does: a member is
// cut out with its comma, an array element becomes null, and a path that
// does not exist is left alone.
func (dr *Draft) spliceDelete(path string) {
	text, off := dr.text, 0
	for rest, more, top := path, true, true; more; top = false {
		var seg string
		seg, rest, more = strings.Cut(rest, ".")
		switch text[off] {
		case '{':
			if top && (seg == "_id" || seg == "_version") {
				return // not fields of a text
			}
			m := findSorted(text, off, seg)
			if !m.found {
				return
			}
			if more {
				off = m.val
				continue
			}
			switch {
			case m.prevEnd > 0: // the comma after the previous member
				dr.text = splice(text, m.prevEnd, m.end, nil)
			case text[m.end] == ',':
				dr.text = splice(text, m.key, m.end+1, nil)
			default:
				dr.text = splice(text, m.key, m.end, nil)
			}
			return
		case '[':
			at, end, ok := elementAt(text, off, seg)
			if !ok {
				return
			}
			if !more {
				dr.text = splice(text, at, end, []byte("null"))
				return
			}
			off = at
		default:
			return
		}
	}
}

// sortedMember is where findSorted found a member, or would insert it.
type sortedMember struct {
	found bool
	// key and val are where the member's key and value begin and end
	// where its value ends; prevEnd is where the value of the last member
	// with a smaller key ends, 0 when there is none.
	key, val, end, prevEnd int
}

// findSorted finds the member named key in the object at off of a text
// in wire form, whose keys are sorted and unique.
func findSorted(text []byte, off int, key string) sortedMember {
	var m sortedMember
	dec := Decoder{data: text, off: off}
	if dec.open() != nil {
		return m
	}
	for first := true; ; first = false {
		at := dec.off
		if !first {
			at++ // past the comma
		}
		k, _, more, err := dec.memberKey(first)
		if err != nil || !more {
			return m
		}
		end := skipChecked(text, dec.off)
		switch c := compareKey(k, key); {
		case c == 0:
			m.found, m.key, m.val, m.end = true, at, dec.off, end
			return m
		case c > 0:
			return m
		}
		m.prevEnd = end
		dec.off = end
	}
}

// compareKey is strings.Compare for an unquoted key, without a copy.
func compareKey(k []byte, key string) int {
	for i := 0; i < len(k) && i < len(key); i++ {
		if k[i] != key[i] {
			if k[i] < key[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(k) < len(key):
		return -1
	case len(k) > len(key):
		return 1
	}
	return 0
}

// elementAt returns the span of element seg of the array at off of a
// checked text, or ok false when seg is not an index into it.
func elementAt(text []byte, off int, seg string) (at, end int, ok bool) {
	idx, err := strconv.Atoi(seg)
	if err != nil || idx < 0 {
		return 0, 0, false
	}
	dec := Decoder{data: text, off: off}
	if at, ok = dec.findElement(idx); !ok {
		return 0, 0, false
	}
	return at, skipChecked(text, at), true
}

// splice returns text with text[from:to] replaced by val: in place when
// text has the room, else in a new slice of exactly the new length.
func splice(text []byte, from, to int, val []byte) []byte {
	n := len(text) - (to - from) + len(val)
	if n > cap(text) {
		out := make([]byte, 0, n)
		out = append(out, text[:from]...)
		out = append(out, val...)
		return append(out, text[to:]...)
	}
	out := text[:n]
	copy(out[from+len(val):], text[to:])
	copy(out[from:], val)
	return out
}

// Holds reports how the value at path relates to v under Compare's
// equality: found says the path exists, equal that its value equals v,
// and element that the value is an array with an element equal to v. It
// is what equality-like predicates ask. A text document compares match
// keys (see MatchKey) read off its text, decoding nothing but objects,
// nested arrays and strings with escapes.
func (d *Document) Holds(path string, v any) (found, equal, element bool) {
	if d == nil {
		return false, false, false
	}
	w := d.textForm()
	if w == nil || path == "" {
		stored, ok := d.Get(path)
		if !ok {
			return false, false, false
		}
		equal, element = ValueHolds(stored, v)
		return true, equal, element
	}
	dec := Decoder{data: w.bytes, deferRange: true}
	if !dec.locate(path) {
		return false, false, false
	}
	var wantBuf, keyBuf [64]byte
	want := AppendMatchKey(wantBuf[:0], v)
	_, whole := v.([]any) // only an array can equal an array
	keys := keyBuf[:0]
	var err error
	if dec.next() != '[' {
		keys, err = dec.appendMatchKey(keys)
		mustScan(err)
		return true, bytes.Equal(keys, want), false
	}
	mustScan(dec.open())
	keys = append(keys, '[')
	for first := true; ; first = false {
		more, err := dec.element(first)
		mustScan(err)
		if !more {
			break
		}
		if !whole {
			keys = keys[:0]
		} else if !first {
			keys = append(keys, ',')
		}
		start := len(keys)
		keys, err = dec.appendMatchKey(keys)
		mustScan(err)
		if bytes.Equal(keys[start:], want) {
			element = true
			if !whole {
				return true, false, true
			}
		}
	}
	return true, whole && bytes.Equal(append(keys, ']'), want), element
}

// ValueHolds is Holds for a value already read: whether stored equals v,
// and whether stored is an array with an element equal to v.
func ValueHolds(stored, v any) (equal, element bool) {
	if arr, ok := stored.([]any); ok {
		for _, e := range arr {
			if DeepEqual(e, v) {
				element = true
				break
			}
		}
	}
	return DeepEqual(stored, v), element
}

// mustScan panics on an error reading a text its scan accepted, rather
// than answer for fields it could not read.
func mustScan(err error) {
	if err != nil {
		panic(fmt.Sprintf("document: a stored text its scan accepted does not decode: %v", err))
	}
}
