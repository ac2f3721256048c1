package document

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is how deeply arrays and objects may nest in one JSON text:
// encoding/json's limit.
const maxDepth = 10000

// Decoder reads one JSON text in a single pass, straight into the
// canonical type set (see Document): the counterpart of AppendJSON. It
// accepts what encoding/json accepts and yields what encoding/json with
// UseNumber, followed by a conversion of each json.Number, yielded:
//
//   - an integer literal that fits in int64 is an int64 and every other
//     number a float64, so 1.0 and 1e2 are floats; a number beyond
//     float64's range is refused, and -0 is 0;
//   - strings are unquoted as encoding/json unquotes them: a valid
//     surrogate pair is one rune, a lone or invalid surrogate and each
//     invalid UTF-8 byte become U+FFFD, and a raw byte below 0x20 is
//     refused;
//   - of duplicate object keys the last wins, and [] is a non-nil empty
//     slice;
//   - whitespace is space, \t, \n and \r, and nesting deeper than 10 000
//     is refused.
//
// Besides whole values (Value, Document, DocumentText) it hands a text
// out piece by piece (Object, Array, String, Int64, Float64, Null, Skip),
// so a caller can bind a request struct while the documents inside it
// decode in the same pass. Every method decodes the next value — Skip,
// Raw and DocumentText check it by a scan that builds no values; End
// checks that nothing but whitespace follows the last one.
type Decoder struct {
	data  []byte
	off   int
	depth int
	stack []any  // elements of the arrays being read, innermost last
	buf   []byte // an escaped string's unquoted bytes

	// deferRange defers the refusal of a number beyond float64's range.
	// Document refuses only the ones left in the fields it returns: the
	// reference kept numbers as text until the document was whole, so
	// one a duplicate key overwrote, or one inside "_id", was never
	// refused. Skip refuses none, as encoding/json skips an unknown
	// field's value. bad counts the deferred numbers.
	deferRange bool
	bad        int

	// canon is cleared by anything a scan meets that AppendJSON would
	// write otherwise: whitespace, an escape it does not use, a byte it
	// escapes, keys out of order, a number it prints otherwise.
	// DocumentText sets it before its scan and keeps what is left.
	canon bool
}

// outOfRange stands in for a deferred number beyond float64's range.
type outOfRange string

// NewDecoder returns a decoder reading data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// UnmarshalJSON decodes the wire representation produced by MarshalJSON:
// see Decoder.Document.
func (d *Document) UnmarshalJSON(data []byte) error {
	dec := Decoder{data: data}
	if err := dec.Document(d); err != nil {
		return err
	}
	return dec.End()
}

// Document decodes a document's wire form into doc: an object, or null
// for empty fields. "_id" sets doc.ID only when it is a string and
// "_version" sets doc.Version only when it is an integer (any other
// number is an error); neither stays in Fields, which is replaced. An
// absent "_id" or "_version" leaves doc's own.
func (d *Decoder) Document(doc *Document) error {
	outer := d.deferRange
	d.deferRange, d.bad = true, 0
	err := d.document(doc)
	d.deferRange = outer
	return err
}

func (d *Decoder) document(doc *Document) error {
	if d.Null() {
		doc.Fields = map[string]any{}
		return nil
	}
	fields := map[string]any{}
	var id, version any
	err := d.Object(func(key string) error {
		v, err := d.value()
		switch key {
		case "_id":
			id = v
		case "_version":
			version = v
		default:
			fields[key] = v
		}
		return err
	})
	if err != nil {
		return err
	}
	if s, ok := id.(string); ok {
		doc.ID = s
	}
	switch n := version.(type) {
	case int64:
		doc.Version = n
	case float64, outOfRange:
		return fmt.Errorf("document: bad _version %v", n)
	}
	if d.bad > 0 {
		if lit, ok := findOutOfRange(fields); ok {
			return fmt.Errorf("document: number %s out of range", lit)
		}
	}
	doc.Fields = fields
	return nil
}

// findOutOfRange returns a deferred out-of-range number left in v.
func findOutOfRange(v any) (outOfRange, bool) {
	switch t := v.(type) {
	case outOfRange:
		return t, true
	case []any:
		for _, e := range t {
			if lit, ok := findOutOfRange(e); ok {
				return lit, true
			}
		}
	case map[string]any:
		for _, e := range t {
			if lit, ok := findOutOfRange(e); ok {
				return lit, true
			}
		}
	}
	return "", false
}

// Value decodes the next value of any type.
func (d *Decoder) Value() (any, error) { return d.value() }

// Skip checks the next value as Value would decode it and steps over it,
// building nothing: a scan, not a decode. Like encoding/json skipping an
// unknown field, it refuses no number for its range.
func (d *Decoder) Skip() error { return d.scan(false) }

// Raw checks the next value as Skip does and returns its text: a slice of
// the decoder's input, which the caller must not modify.
func (d *Decoder) Raw() ([]byte, error) {
	d.next()
	start := d.off
	if err := d.Skip(); err != nil {
		return nil, err
	}
	return d.data[start:d.off], nil
}

// FieldName matches an object key to one of a struct's JSON field names
// as encoding/json does: an exact match first, else a case-insensitive
// one; "" when neither matches. Binders switch on it.
func FieldName(key string, names ...string) string {
	for _, n := range names {
		if key == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(key, n) {
			return n
		}
	}
	return ""
}

// Null consumes the next value if it is null and reports whether it was.
func (d *Decoder) Null() bool {
	return d.next() == 'n' && d.literal("null") == nil
}

// String decodes the next value, which must be a string.
func (d *Decoder) String() (string, error) {
	if d.next() != '"' {
		return "", d.typeError("a string")
	}
	return d.str()
}

// StringField decodes the next value into a string field as
// encoding/json does: a string is stored in *dst, null leaves *dst as it
// is.
func (d *Decoder) StringField(dst *string) error {
	if d.Null() {
		return nil
	}
	s, err := d.String()
	if err == nil {
		*dst = s
	}
	return err
}

// DocumentField decodes the next value into a *Document field as
// encoding/json does: null sets *dst to nil, and a document decodes into
// *dst, a new Document when *dst is nil.
func (d *Decoder) DocumentField(dst **Document) error {
	if d.Null() {
		*dst = nil
		return nil
	}
	if *dst == nil {
		*dst = &Document{}
	}
	return d.Document(*dst)
}

// Int64 decodes the next value, which must be an integer literal in
// int64's range.
func (d *Decoder) Int64() (int64, error) {
	if !d.atNumber() {
		return 0, d.typeError("an integer")
	}
	start := d.off
	n, _, isInt, err := d.number()
	if err == errOutOfRange || err == nil && !isInt {
		err = fmt.Errorf("document: number %s is not an int64", d.data[start:d.off])
	}
	return n, err
}

// Float64 decodes the next value, which must be a number.
func (d *Decoder) Float64() (float64, error) {
	if !d.atNumber() {
		return 0, d.typeError("a number")
	}
	start := d.off
	n, f, isInt, err := d.number()
	if err == errOutOfRange {
		err = fmt.Errorf("document: number %s out of range", d.data[start:d.off])
	}
	if isInt {
		f = float64(n)
	}
	return f, err
}

// Object decodes the next value, which must be an object, calling member
// with each key in order; member must decode exactly the key's value.
func (d *Decoder) Object(member func(key string) error) error {
	if d.next() != '{' {
		return d.typeError("an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
	}
}

// Array decodes the next value, which must be an array, calling elem for
// each element in order; elem must decode exactly that element.
func (d *Decoder) Array(elem func() error) error {
	if d.next() != '[' {
		return d.typeError("an array")
	}
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil || !ok {
			return err
		}
		if err := elem(); err != nil {
			return err
		}
	}
}

// End reports an error unless only whitespace follows the values decoded.
func (d *Decoder) End() error {
	d.next()
	if d.off < len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

// next skips whitespace and returns the byte after it, 0 at the end.
func (d *Decoder) next() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.canon = false
		default:
			return c
		}
	}
	return 0
}

func (d *Decoder) atNumber() bool {
	c := d.next()
	return c == '-' || isDigit(c)
}

func (d *Decoder) syntaxError(context string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("document: unexpected end of JSON input")
	}
	return fmt.Errorf("document: invalid character %q %s at offset %d", d.data[d.off], context, d.off)
}

func (d *Decoder) typeError(want string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("document: unexpected end of JSON input")
	}
	return fmt.Errorf("document: %q at offset %d does not begin %s", d.data[d.off], d.off, want)
}

// open consumes the opening byte of an array or object.
func (d *Decoder) open() error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return fmt.Errorf("document: JSON nested deeper than %d at offset %d", maxDepth, d.off)
	}
	return nil
}

// member steps to the next member of the object being read: it consumes
// the comma before it (none before the first), its key and the colon, and
// returns the key, or ok false once it consumed the closing brace. A key
// without escapes is taken from the name table.
func (d *Decoder) member(first bool) (key string, ok bool, err error) {
	b, rewritten, ok, err := d.memberKey(first)
	if err != nil || !ok {
		return "", false, err
	}
	if rewritten {
		return string(b), true, nil
	}
	return intern(b), true, nil
}

// memberKey is member with the key left unquoted in a byte slice (see
// strBytes) and whether unquoting rewrote it: no key string is made.
func (d *Decoder) memberKey(first bool) (key []byte, rewritten, ok bool, err error) {
	c := d.next()
	if c == '}' {
		d.off++
		d.depth--
		return nil, false, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, false, d.syntaxError("after object key:value pair")
		}
		d.off++
		c = d.next()
	}
	if c != '"' {
		return nil, false, false, d.syntaxError("looking for beginning of object key string")
	}
	if key, rewritten, err = d.strBytes(); err != nil {
		return nil, false, false, err
	}
	if d.next() != ':' {
		return nil, false, false, d.syntaxError("after object key")
	}
	d.off++
	return key, rewritten, true, nil
}

// scan steps over the next value, checking it exactly as value decodes
// it but building nothing. With countRange set it counts in d.bad the
// numbers beyond float64's range, which it otherwise lets pass.
func (d *Decoder) scan(countRange bool) error {
	switch c := d.next(); c {
	case '{':
		if err := d.open(); err != nil {
			return err
		}
		var prev []byte
		for first := true; ; first = false {
			key, rewritten, ok, err := d.memberKey(first)
			if err != nil || !ok {
				return err
			}
			if rewritten || !first && bytes.Compare(prev, key) >= 0 {
				d.canon = false
			}
			prev = key
			if err := d.scan(countRange); err != nil {
				return err
			}
		}
	case '[':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			ok, err := d.element(first)
			if err != nil || !ok {
				return err
			}
			if err := d.scan(countRange); err != nil {
				return err
			}
		}
	case '"':
		_, _, err := d.strBytes()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		if c == '-' || isDigit(c) {
			lit, isInt, err := d.numberLit()
			if err != nil {
				return err
			}
			if countRange && !inRange(lit, isInt) {
				d.bad++
			}
			if d.canon && !canonNumber(lit, isInt) {
				d.canon = false
			}
			return nil
		}
		return d.syntaxError("looking for beginning of value")
	}
}

// element steps to the next element of the array being read: it consumes
// the comma before it (none before the first), or reports ok false once it
// consumed the closing bracket. "[1,]" fails at the value after the comma.
func (d *Decoder) element(first bool) (ok bool, err error) {
	c := d.next()
	if c == ']' {
		d.off++
		d.depth--
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, d.syntaxError("after array element")
		}
		d.off++
	}
	return true, nil
}

func (d *Decoder) value() (any, error) {
	switch c := d.next(); c {
	case '{':
		return d.object()
	case '[':
		return d.array()
	case '"':
		return d.str()
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	case 'n':
		return nil, d.literal("null")
	default:
		if c == '-' || isDigit(c) {
			start := d.off
			n, f, isInt, err := d.number()
			switch {
			case isInt:
				return n, err
			case err == errOutOfRange && d.deferRange:
				d.bad++
				return outOfRange(d.data[start:d.off]), nil
			case err == errOutOfRange:
				return nil, fmt.Errorf("document: number %s out of range", d.data[start:d.off])
			}
			return f, err
		}
		return nil, d.syntaxError("looking for beginning of value")
	}
}

func (d *Decoder) object() (map[string]any, error) {
	m := map[string]any{}
	err := d.Object(func(key string) (err error) {
		m[key], err = d.value()
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// array collects the elements on the decoder's stack, so the slice it
// returns is allocated once, at its final length.
func (d *Decoder) array() ([]any, error) {
	base := len(d.stack)
	err := d.Array(func() error {
		v, err := d.value()
		d.stack = append(d.stack, v)
		return err
	})
	var out []any
	if err == nil {
		out = append(make([]any, 0, len(d.stack)-base), d.stack[base:]...)
	}
	clear(d.stack[base:])
	d.stack = d.stack[:base]
	return out, err
}

func (d *Decoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.syntaxError("in literal " + lit)
	}
	d.off += len(lit)
	return nil
}

// number decodes the number literal at the decoder's offset: as n when it
// is an integer literal in int64's range, else as f.
func (d *Decoder) number() (n int64, f float64, isInt bool, err error) {
	lit, isInt, err := d.numberLit()
	if err != nil {
		return 0, 0, false, err
	}
	if isInt {
		if n, ok := parseInt64(lit, lit[0] == '-'); ok {
			return n, 0, true, nil
		}
	}
	f, perr := strconv.ParseFloat(string(lit), 64)
	if perr != nil {
		return 0, 0, false, errOutOfRange
	}
	if f == 0 {
		f = 0 // +0, whatever the sign was
	}
	return 0, f, false, nil
}

// numberLit steps over the number literal at the decoder's offset and
// returns it, with whether it is an integer literal: no fraction, no
// exponent.
func (d *Decoder) numberLit() (lit []byte, isInt bool, err error) {
	data, start := d.data, d.off
	i := start
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && isDigit(data[i]):
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	default:
		d.off = i
		return nil, false, d.syntaxError("in numeric literal")
	}
	isInt = true
	if i < len(data) && data[i] == '.' {
		isInt = false
		if i++; i >= len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, false, d.syntaxError("after decimal point in numeric literal")
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		isInt = false
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, false, d.syntaxError("in exponent of numeric literal")
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	d.off = i
	return data[start:i], isInt, nil
}

// inRange reports whether a grammatical number literal lies within
// float64's range, as number requires. One below 10^300 does, whatever
// its digits, so only a longer literal, or one with a large exponent, is
// parsed to tell.
func inRange(lit []byte, isInt bool) bool {
	i := 0
	if lit[0] == '-' {
		i++
	}
	intDigits := 0
	for ; i < len(lit) && isDigit(lit[i]); i++ {
		intDigits++
	}
	exp := 0
	if !isInt {
		for i < len(lit) && lit[i] != 'e' && lit[i] != 'E' {
			i++
		}
		if i < len(lit) {
			i++
			neg := lit[i] == '-'
			if neg || lit[i] == '+' {
				i++
			}
			if len(lit)-i > 4 {
				exp = 1000 // too long to sum, whatever its sign: parse
			} else {
				for ; i < len(lit); i++ {
					exp = exp*10 + int(lit[i]-'0')
				}
				if neg {
					exp = -exp
				}
			}
		}
	}
	if intDigits+exp < 300 {
		return true
	}
	_, err := strconv.ParseFloat(string(lit), 64)
	return err == nil
}

// errOutOfRange is number's answer to a literal beyond float64's range.
var errOutOfRange = errors.New("document: number out of range")

// parseInt64 parses a grammatical integer literal, reporting whether it
// fits in int64.
func parseInt64(lit []byte, neg bool) (int64, bool) {
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range lit {
		u = u*10 + uint64(c-'0') // 19 digits cannot overflow uint64
	}
	switch {
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}

// str decodes the string literal whose opening quote is at the offset.
func (d *Decoder) str() (string, error) {
	b, _, err := d.strBytes()
	return string(b), err
}

// strBytes unquotes the string literal whose opening quote is at the
// offset. The bytes are the input's own when the literal needs no
// rewriting, else the decoder's scratch, valid until its next string.
func (d *Decoder) strBytes() (b []byte, rewritten bool, err error) {
	data := d.data
	start := d.off + 1
	for i := start; i < len(data); {
		c := data[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			d.off = i + 1
			return data[start:i], false, nil
		case c == '<' || c == '>' || c == '&':
			d.canon = false
			i++
			continue
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(data[i:])
			if r == '\u2028' || r == '\u2029' {
				d.canon = false
			}
			if r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		}
		b, err := d.unquote(start, i)
		return b, true, err
	}
	d.off = len(data)
	return nil, false, d.syntaxError("in string literal")
}

// plainByte marks the bytes a string literal holds as they stand and
// AppendJSONString writes as they stand: printable ASCII but for '"',
// '\\', '<', '>' and '&'.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// unquote finishes a string literal that needs rewriting: data[start:i]
// is plain, data[i] the first escape, control byte or invalid UTF-8.
func (d *Decoder) unquote(start, i int) ([]byte, error) {
	data := d.data
	b := append(d.buf[:0], data[start:i]...)
	defer func() { d.buf = b }()
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return b, nil
		case c < ' ':
			d.off = i
			return nil, d.syntaxError("in string literal")
		case c == '\\':
			if i+1 >= len(data) {
				d.off = len(data)
				return nil, d.syntaxError("in string escape code")
			}
			if canonEscape(data[i:]) == 0 {
				d.canon = false
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data[i:])
				if r < 0 {
					d.off = i
					return nil, d.syntaxError("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(data[i:])); dec != utf8.RuneError {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i + 1
				return nil, d.syntaxError("in string escape code")
			}
			i += 2
		case c < utf8.RuneSelf:
			if c == '<' || c == '>' || c == '&' {
				d.canon = false
			}
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
				d.canon = false
			}
			if r == utf8.RuneError && size == 1 {
				b = append(b, "\uFFFD"...)
			} else {
				b = append(b, data[i:i+size]...)
			}
			i += size
		}
	}
	d.off = len(data)
	return nil, d.syntaxError("in string literal")
}

// The name table: object keys decode to one shared string each, so the
// documents a store keeps share their field names instead of carrying a
// copy per document. It is process-wide and bounded: at most maxNames
// names of at most maxNameLen bytes, in an open-addressed set of twice as
// many slots. A slot is filled once, under nameMu, and read with one
// atomic load, so a hit takes no lock and allocates nothing. A miss once
// the table is full or the probe window is, a longer key and a key with
// escapes decode to a fresh string; no result depends on the table.
const (
	maxNames   = 4096
	maxNameLen = 32
	nameProbes = 8
)

var (
	nameSeed  = maphash.MakeSeed()
	nameSlots [2 * maxNames]atomic.Pointer[string]
	nameCount atomic.Int32 // filled slots; written under nameMu
	nameMu    sync.Mutex   // serializes filling slots
)

// intern returns b as a string, shared if it is or can become a name in
// the table.
func intern(b []byte) string {
	if len(b) > maxNameLen {
		return string(b)
	}
	h := maphash.Bytes(nameSeed, b)
	for i := uint64(0); i < nameProbes; i++ {
		p := nameSlots[(h+i)%uint64(len(nameSlots))].Load()
		if p == nil {
			return addName(string(b), h)
		}
		if *p == string(b) {
			return *p
		}
	}
	return string(b)
}

// addName enters s, whose hash is h, into the table unless it is there
// or the table is full, and returns the table's copy.
func addName(s string, h uint64) string {
	if nameCount.Load() >= maxNames {
		return s
	}
	nameMu.Lock()
	defer nameMu.Unlock()
	for i := uint64(0); i < nameProbes && nameCount.Load() < maxNames; i++ {
		slot := &nameSlots[(h+i)%uint64(len(nameSlots))]
		if p := slot.Load(); p != nil {
			if *p == s {
				return *p
			}
			continue
		}
		slot.Store(&s)
		nameCount.Add(1)
		return s
	}
	return s
}

// hex4 decodes the \uXXXX escape s begins with, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
