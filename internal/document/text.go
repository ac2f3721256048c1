package document

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"
)

// A text document is one the server decoded from the wire with
// DocumentText, or one the store built from an update (see Draft): it
// keeps its JSON text and builds no field values. Its state lives in its
// wire form, whose text flag says that the fields come from the bytes:
//
//   - raw: the bytes are the text as it arrived, and canon says whether
//     its scan found it in wire form but perhaps for the values of "_id"
//     and "_version". Until the document is sealed its ID and Version
//     may still change, so AppendJSON encodes it afresh each time.
//   - canonical: the bytes are the wire form at version. The first
//     AppendJSON after Seal replaces a raw text by it, which is the text
//     itself, uncopied, when the text already was that form (as an SDK's
//     or a log's is); a Draft's document starts out in it.
//
// No state keeps decoded fields. Get decodes the one value a path names,
// Holds and IndexKeys compare and read match keys off the bytes, and the
// executor reads no field when its residual is True; Body decodes the
// whole text on every call, for the readers that need all of it.

// textDecodes counts the decodes of a text document's whole body.
var textDecodes atomic.Int64

// TextDecodes returns how many times, process-wide, a text document's
// body was decoded into values (by Body, Clone, Equal, a write's Set or
// Delete, a Draft that cannot splice, or the encoding of a text that is
// not in wire form). Tests use it to check that a path reads no fields.
func TextDecodes() int64 { return textDecodes.Load() }

// DocumentText decodes a document's wire form into doc as Document does,
// accepting and refusing the same texts and setting ID and Version the
// same way, but builds no field values: the text is checked by a scan and
// a copy of it is kept, and the fields are decoded the first time they
// are read. Fields stays nil; read them through Body or Get. A text with
// a number beyond float64's range, which Document refuses unless a later
// duplicate key or "_id" holds it, is decoded as Document decodes it.
func (d *Decoder) DocumentText(doc *Document) error {
	if d.Null() {
		doc.Fields = map[string]any{}
		doc.wire.Store(nil)
		return nil
	}
	if d.next() != '{' {
		return d.typeError("an object")
	}
	start := d.off
	outer := d.bad
	d.bad, d.canon = 0, true
	defer func() { d.bad = outer }()
	idAt, versionAt := -1, -1
	if err := d.open(); err != nil {
		return err
	}
	var prev []byte
	for first := true; ; first = false {
		key, rewritten, ok, err := d.memberKey(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if rewritten || !first && bytes.Compare(prev, key) >= 0 {
			d.canon = false
		}
		prev = key
		canon := d.canon
		switch string(key) {
		case "_id":
			idAt = d.off
		case "_version":
			versionAt = d.off
		default:
			canon = false
		}
		if err := d.scan(true); err != nil {
			return err
		}
		if canon {
			d.canon = true // the wire form replaces "_id" and "_version" whole
		}
	}
	end := d.off
	canon := d.canon && idAt >= 0 && versionAt >= 0
	if d.bad > 0 {
		d.off = start
		if err := d.Document(doc); err != nil {
			return err
		}
		doc.wire.Store(nil)
		return nil
	}
	if versionAt >= 0 {
		d.off = versionAt
		if d.atNumber() {
			n, _, isInt, err := d.number()
			if err != nil || !isInt {
				return fmt.Errorf("document: bad _version %s", d.data[versionAt:d.off])
			}
			doc.Version = n
		}
	}
	if idAt >= 0 {
		d.off = idAt
		if d.next() == '"' {
			id, err := d.str()
			if err != nil {
				return err
			}
			doc.ID = id
		}
	}
	d.off = end
	doc.Fields = nil
	doc.wire.Store(&wireForm{bytes: bytes.Clone(d.data[start:end]), text: true, raw: true, canon: canon})
	return nil
}

// DocumentTextField is DocumentField for DocumentText.
func (d *Decoder) DocumentTextField(dst **Document) error {
	if d.Null() {
		*dst = nil
		return nil
	}
	if *dst == nil {
		*dst = &Document{}
	}
	return d.DocumentText(*dst)
}

// textForm returns d's wire form when d is a text document, else nil.
func (d *Document) textForm() *wireForm {
	if w := d.wire.Load(); w != nil && w.text {
		return w
	}
	return nil
}

// Body returns the document's fields, read-only: Fields for a document
// built in Go or decoded by Document, and for a text document the fields
// of its text, decoded afresh on every call. Readers that need a few
// paths read them through Get or Holds instead.
func (d *Document) Body() map[string]any {
	if d == nil {
		return nil
	}
	if w := d.textForm(); w != nil {
		return decodeText(w.bytes)
	}
	return d.Fields
}

// decodeText decodes the fields of a text the document's DocumentText or
// AppendJSON produced, so checked already: a text that does not decode
// means the scan accepted what the decoder refuses, and it panics rather
// than lose the fields.
func decodeText(text []byte) map[string]any {
	textDecodes.Add(1)
	dec := Decoder{data: text}
	var doc Document
	if err := dec.Document(&doc); err != nil {
		panic(fmt.Sprintf("document: a stored text its scan accepted does not decode: %v", err))
	}
	return doc.Fields
}

// ownFields turns a text document into one whose Fields hold a private
// copy of its body, for a writer that owns it (Set, Delete).
func (d *Document) ownFields() {
	if w := d.textForm(); w != nil {
		d.Fields = decodeText(w.bytes)
		d.wire.Store(nil)
	}
}

// lookupText returns the value at a dotted path of a document's text, as
// GetPath returns it from the decoded fields, decoding that value alone.
// "_id" and "_version" are not fields.
func lookupText(text []byte, path string) (any, bool) {
	dec := Decoder{data: text, deferRange: true}
	if !dec.locate(path) {
		return nil, false
	}
	v, err := dec.value()
	if err != nil {
		return nil, false
	}
	return v, true
}

// locate moves the decoder to the value at a dotted path of a checked
// text (see lookupText) and reports whether there is one.
func (dec *Decoder) locate(path string) bool {
	for rest, more, top := path, true, true; more; top = false {
		var seg string
		seg, rest, more = strings.Cut(rest, ".")
		switch dec.next() {
		case '{':
			if top && (seg == "_id" || seg == "_version") {
				return false
			}
			at, ok := dec.findMember(seg)
			if !ok {
				return false
			}
			dec.off = at
		case '[':
			idx, err := strconv.Atoi(seg)
			if err != nil || idx < 0 {
				return false
			}
			at, ok := dec.findElement(idx)
			if !ok {
				return false
			}
			dec.off = at
		default:
			return false
		}
	}
	dec.depth = 0
	return true
}

// IndexKeys appends to keys the match keys (see AppendMatchKey) a
// multikey index posts d under at path, and the end of each to ends: one
// per element when the value is a non-empty array, which sets elems, else
// the value's own. ok is false when the path does not exist. A text
// document's keys are read off its text, decoding no value but an
// object, a nested array or a string with escapes; any other document's
// are encoded from the value Get returns.
func (d *Document) IndexKeys(path string, keys []byte, ends []int) (_ []byte, _ []int, elems, ok bool) {
	if w := d.textForm(); w != nil && path != "" {
		dec := Decoder{data: w.bytes, deferRange: true}
		if !dec.locate(path) {
			return keys, ends, false, false
		}
		keys, ends, elems, err := dec.appendIndexKeys(keys, ends)
		if err != nil {
			panic(fmt.Sprintf("document: a stored text its scan accepted does not decode: %v", err))
		}
		return keys, ends, elems, true
	}
	v, found := d.Get(path)
	if !found {
		return keys, ends, false, false
	}
	if arr, isArr := v.([]any); isArr && len(arr) > 0 {
		for _, e := range arr {
			keys = AppendMatchKey(keys, e)
			ends = append(ends, len(keys))
		}
		return keys, ends, true, true
	}
	keys = AppendMatchKey(keys, v)
	return keys, append(ends, len(keys)), false, true
}

// appendIndexKeys is IndexKeys for the value at the decoder's offset.
func (d *Decoder) appendIndexKeys(keys []byte, ends []int) (_ []byte, _ []int, elems bool, err error) {
	if d.next() != '[' {
		keys, err = d.appendMatchKey(keys)
		return keys, append(ends, len(keys)), false, err
	}
	if err := d.open(); err != nil {
		return keys, ends, false, err
	}
	n := len(ends)
	for first := true; ; first = false {
		more, err := d.element(first)
		if err != nil {
			return keys, ends, false, err
		}
		if !more {
			break
		}
		if keys, err = d.appendMatchKey(keys); err != nil {
			return keys, ends, false, err
		}
		ends = append(ends, len(keys))
	}
	if len(ends) > n {
		return keys, ends, true, nil
	}
	keys = append(keys, "[]"...)
	return keys, append(ends, len(keys)), false, nil
}

// appendMatchKey appends the match key of the next value, read off the
// text where its form allows: AppendMatchKey of the value it decodes to.
func (d *Decoder) appendMatchKey(dst []byte) ([]byte, error) {
	switch c := d.next(); {
	case c == '"':
		b, rewritten, err := d.strBytes()
		if err != nil {
			return dst, err
		}
		if !rewritten && quotesAsIs(b) {
			dst = append(append(dst, '"'), b...)
			return append(dst, '"'), nil
		}
		return strconv.AppendQuote(dst, string(b)), nil
	case c == '-' || isDigit(c):
		n, f, isInt, err := d.number()
		if isInt {
			return AppendMatchKey(dst, n), err
		}
		return AppendMatchKey(dst, f), err
	case c == 't' || c == 'f' || c == 'n':
		start := d.off
		err := d.scan(false)
		return append(dst, d.data[start:d.off]...), err
	default:
		v, err := d.value()
		return AppendMatchKey(dst, v), err
	}
}

// quotesAsIs reports whether strconv.Quote leaves b's bytes as they are.
func quotesAsIs(b []byte) bool {
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if c < ' ' || c == 0x7f || c == '"' || c == '\\' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 || !strconv.IsPrint(r) {
			return false
		}
		i += size
	}
	return true
}

// findMember returns the offset of the value of the object's last member
// named key — the one decoding keeps.
func (d *Decoder) findMember(key string) (at int, ok bool) {
	if d.open() != nil {
		return 0, false
	}
	for first := true; ; first = false {
		k, _, more, err := d.memberKey(first)
		if err != nil || !more {
			return at, ok
		}
		if string(k) == key {
			at, ok = d.off, true
		}
		d.off = skipChecked(d.data, d.off)
	}
}

// findElement returns the offset of the array's element idx.
func (d *Decoder) findElement(idx int) (int, bool) {
	if d.open() != nil {
		return 0, false
	}
	for i, first := 0, true; ; i, first = i+1, false {
		more, err := d.element(first)
		if err != nil || !more {
			return 0, false
		}
		if i == idx {
			d.next()
			return d.off, true
		}
		d.off = skipChecked(d.data, d.off)
	}
}

// skipChecked returns the offset past the value at off in a text that
// was checked already, so it finds a string's end by its quotes alone.
func skipChecked(data []byte, off int) int {
	for off < len(data) && isSpace(data[off]) {
		off++
	}
	if off >= len(data) {
		return off
	}
	switch data[off] {
	case '"':
		return stringEnd(data, off)
	case '{', '[':
		for depth := 0; off < len(data); {
			switch data[off] {
			case '"':
				off = stringEnd(data, off)
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return off + 1
				}
			}
			off++
		}
		return off
	default:
		for ; off < len(data); off++ {
			switch data[off] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return off
			}
		}
		return off
	}
}

// stringEnd returns the offset past the string literal of a checked text
// whose opening quote is at off.
func stringEnd(data []byte, off int) int {
	for i := off + 1; ; i++ {
		j := bytes.IndexByte(data[i:], '"')
		if j < 0 {
			return len(data)
		}
		i += j
		escapes := 0
		for k := i - 1; data[k] == '\\'; k-- {
			escapes++
		}
		if escapes%2 == 0 {
			return i + 1
		}
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// appendText appends the wire form of the text document w holds, with
// the given id and version. same reports that the wire form is the text
// itself. A text its scan found in wire form but for the values of "_id"
// and "_version" has those replaced; any other is decoded and encoded.
func appendText(dst []byte, w *wireForm, id string, version int64) (out []byte, same bool, err error) {
	text := w.bytes
	if !w.canon {
		doc := Document{ID: id, Version: version, Fields: decodeText(text)}
		out, err = doc.appendJSON(dst)
		return out, false, err
	}
	idStart, idEnd, versionStart, versionEnd := identityAt(text)
	out = append(dst, text[:idStart]...)
	out = AppendJSONString(out, id)
	out = append(out, text[idEnd:versionStart]...)
	out = strconv.AppendInt(out, version, 10)
	out = append(out, text[versionEnd:]...)
	return out, bytes.Equal(out[len(dst):], text), nil
}

// identityAt returns where the values of "_id" and "_version" lie in a
// text in wire form, which holds each once and "_id" first.
func identityAt(text []byte) (idStart, idEnd, versionStart, versionEnd int) {
	d := Decoder{data: text, off: 1, depth: 1} // inside the object
	for first := true; versionEnd == 0; first = false {
		key, _, ok, err := d.memberKey(first)
		if err != nil || !ok {
			break
		}
		at := d.off
		d.off = skipChecked(text, d.off)
		switch string(key) {
		case "_id":
			idStart, idEnd = at, d.off
		case "_version":
			versionStart, versionEnd = at, d.off
		}
	}
	return idStart, idEnd, versionStart, versionEnd
}

// canonEscape returns the length of the escape s begins with when it is
// the one AppendJSONString writes for what it stands for, else 0.
func canonEscape(s []byte) int {
	if len(s) < 2 {
		return 0
	}
	switch s[1] {
	case '"', '\\', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(s) < 6 || !isLowerHex(s[2:6]) {
			return 0
		}
		switch r := hex4(s); {
		case r == '<' || r == '>' || r == '&' || r == '\u2028' || r == '\u2029':
			return 6
		case r < ' ' && r != '\b' && r != '\f' && r != '\n' && r != '\r' && r != '\t':
			return 6
		}
	}
	return 0
}

func isLowerHex(s []byte) bool {
	for _, b := range s {
		if !isDigit(b) && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

// canonNumber reports whether a number literal is printed as AppendJSON
// prints the value it decodes to.
func canonNumber(lit []byte, isInt bool) bool {
	if isInt {
		if n, ok := parseInt64(lit, lit[0] == '-'); ok {
			return n != 0 || lit[0] != '-'
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	if f == 0 {
		f = 0
	}
	var buf [32]byte
	out, err := appendJSONFloat(buf[:0], f)
	return err == nil && bytes.Equal(out, lit)
}

// installWire records out as d's wire form at version.
func (d *Document) installWire(w *wireForm, out []byte, version int64) {
	for {
		next := &wireForm{version: version, bytes: out, text: true, canon: true}
		if d.wire.CompareAndSwap(w, next) {
			return
		}
		if w = d.wire.Load(); w == nil || !w.raw && w.version == version {
			return
		}
	}
}
