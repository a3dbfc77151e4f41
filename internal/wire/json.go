package wire

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// JSON writes or reads a message's fields in one pass: JSON bodies without
// reflection. A message type on a hot path lists its fields once, in struct
// order, in a function of one JSON call per field.
// Each call visits one field: key is the field's JSON key, with ",omitempty"
// where its struct tag has it, and p points at the field; JSONObject visits a
// struct-valued field and JSONList a list of structs. AppendJSON runs the
// function to write exactly encoding/json's bytes for the message, and
// ParseJSON to read them back. The reader accepts only that writer's
// grammar: no whitespace, keys in struct order, an omitempty field present
// or absent, canonical integers, strings escaped exactly as Marshal escapes
// them. Anything else it declines, and the caller falls back to
// encoding/json: ParseJSON agrees with json.Unmarshal or gives up.
type JSON struct {
	writing bool
	out     []byte // writing
	in      jsonReader
}

// AppendJSON appends *v as json.Marshal writes it: an object whose fields
// the function fields visits.
func AppendJSON[T any](dst []byte, v *T, fields func(*T, *JSON)) []byte {
	j := JSON{writing: true, out: append(dst, '{')}
	fields(v, &j)
	return append(j.out, '}')
}

// ParseJSON reads what AppendJSON writes into *v, as json.Unmarshal would,
// and reports whether it did. Every string it reads without escapes is a
// view of src (see the package comment). It reads into a copy of *v and
// keeps the copy only if the whole of src was read: a field the input
// leaves out keeps its value, as with json.Unmarshal, and a declined src
// leaves *v untouched.
func ParseJSON[T any](src []byte, v *T, fields func(*T, *JSON)) bool {
	j := JSON{in: jsonReader{src: src}} // the first key reads the '{'
	c := *v
	fields(&c, &j)
	if !j.in.closed() {
		return false
	}
	*v = c
	return true
}

// AppendJSONList and ParseJSONList are AppendJSON and ParseJSON for a list
// of objects. ParseJSONList declines a list *p already holds, whose array
// json.Unmarshal would reuse.
func AppendJSONList[T any](dst []byte, l []T, fields func(*T, *JSON)) []byte {
	j := JSON{writing: true, out: dst}
	objects(&j, &l, fields)
	return j.out
}

func ParseJSONList[T any](src []byte, p *[]T, fields func(*T, *JSON)) bool {
	j := JSON{in: jsonReader{src: src}}
	l := *p
	objects(&j, &l, fields)
	if !j.in.done() {
		return false
	}
	*p = l
	return true
}

// JSONObject visits a field that holds a struct, whose fields the function
// fields visits. encoding/json never omits a struct, so key has no
// ",omitempty".
func JSONObject[T any](j *JSON, key string, v *T, fields func(*T, *JSON)) {
	if j.field(key, false) {
		j.delim('{')
		fields(v, j)
		j.delim('}')
	}
}

// JSONList visits a field that holds a list of structs. Reading, it
// declines a list the target already holds.
func JSONList[T any](j *JSON, key string, p *[]T, fields func(*T, *JSON)) {
	if j.field(key, len(*p) == 0) {
		objects(j, p, fields)
	}
}

// DurationMap visits a field that holds a map from integers to durations.
// encoding/json writes the keys as quoted decimals in string order ("16"
// before "4"). Reading, it declines a map the target already holds, into
// which json.Unmarshal would merge.
func (j *JSON) DurationMap(key string, p *map[int]time.Duration) {
	if !j.field(key, len(*p) == 0) || j.null(*p == nil) {
		return
	}
	j.delim('{')
	if j.writing {
		var stack [16]int
		keys := stack[:0]
		for k := range *p {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b int) int {
			var x, y [20]byte
			return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
		})
		for i, k := range keys {
			if i > 0 {
				j.out = append(j.out, ',')
			}
			j.out = append(strconv.AppendInt(append(j.out, '"'), int64(k), 10), '"', ':')
			j.out = strconv.AppendInt(j.out, int64((*p)[k]), 10)
		}
	} else {
		m := make(map[int]time.Duration)
		for j.in.more('}') {
			j.in.byte('"')
			k := j.in.int()
			j.in.byte('"')
			j.in.byte(':')
			m[int(k)] = time.Duration(j.in.int())
		}
		*p = m
	}
	j.delim('}')
}

// String visits a string field.
func (j *JSON) String(key string, p *string) {
	switch {
	case !j.field(key, *p == ""):
	case j.writing:
		j.out = appendJSONString(j.out, *p)
	default:
		*p = j.in.string()
	}
}

// Int visits an int field.
func (j *JSON) Int(key string, p *int) {
	if n, read := j.int(key, int64(*p)); read {
		*p = int(n)
		j.in.bad = j.in.bad || int64(*p) != n // beyond this platform's int
	}
}

// Duration visits a time.Duration field, which encoding/json writes as its
// count of nanoseconds.
func (j *JSON) Duration(key string, p *time.Duration) {
	if n, read := j.int(key, int64(*p)); read {
		*p = time.Duration(n)
	}
}

// int visits an integer field holding n. Reading, it returns what it read,
// and read true if the field was there.
func (j *JSON) int(key string, n int64) (_ int64, read bool) {
	if !j.field(key, n == 0) {
		return 0, false
	}
	if j.writing {
		j.out = strconv.AppendInt(j.out, n, 10)
		return 0, false
	}
	return j.in.int(), true
}

// Bool visits a bool field.
func (j *JSON) Bool(key string, p *bool) {
	if !j.field(key, !*p) {
		return
	}
	switch {
	case j.writing:
		j.out = strconv.AppendBool(j.out, *p)
	case j.in.literal("true"):
		*p = true
	case j.in.literal("false"):
		*p = false
	default:
		j.in.bad = true
	}
}

// Strings visits a []string field. Reading, it declines a list the target
// already holds, whose array json.Unmarshal would reuse.
func (j *JSON) Strings(key string, p *[]string) {
	if !j.field(key, len(*p) == 0) || j.null(*p == nil) {
		return
	}
	j.delim('[')
	if j.writing {
		for i, s := range *p {
			if i > 0 {
				j.out = append(j.out, ',')
			}
			j.out = appendJSONString(j.out, s)
		}
	} else {
		l := []string{} // [] reads as an empty list, not as nil
		for j.in.more(']') {
			l = append(l, j.in.string())
		}
		*p = l
	}
	j.delim(']')
}

// field starts a field and reports whether its value follows. Writing, an
// omitempty field whose value is empty is left out; otherwise the key is
// written, behind a comma unless it is the object's first. Reading, the key
// is read if it comes next, and a field that is not omitempty must.
func (j *JSON) field(key string, empty bool) bool {
	name, omitEmpty := strings.CutSuffix(key, ",omitempty")
	switch {
	case !j.writing:
		ok := j.in.key(name)
		if !ok && !omitEmpty {
			j.in.bad = true
		}
		return ok
	case omitEmpty && empty:
		return false
	case j.out[len(j.out)-1] != '{': // no JSON value ends with '{'
		j.out = append(j.out, ',')
	}
	j.out = append(append(append(j.out, '"'), name...), '"', ':')
	return true
}

// null takes care of a nil slice or map, which encoding/json writes as
// null, and reports whether it did: writing, when the value is nil; reading,
// when null comes next, or when the target already holds a value (isNil
// false), which the read declines.
func (j *JSON) null(isNil bool) bool {
	switch {
	case j.writing:
		if isNil {
			j.out = append(j.out, "null"...)
		}
		return isNil
	case !isNil:
		j.in.bad = true
		return true
	}
	return j.in.literal("null")
}

// delim writes or reads a delimiter: '{', '}', '[' or ']'.
func (j *JSON) delim(b byte) {
	if j.writing {
		j.out = append(j.out, b)
	} else {
		j.in.byte(b)
	}
}

// objects visits a list of objects. Reading, [] is an empty list, not nil.
func objects[T any](j *JSON, p *[]T, fields func(*T, *JSON)) {
	if j.null(*p == nil) {
		return
	}
	j.delim('[')
	if j.writing {
		for i := range *p {
			if i > 0 {
				j.out = append(j.out, ',')
			}
			j.delim('{')
			fields(&(*p)[i], j)
			j.delim('}')
		}
	} else {
		l := []T{}
		for j.in.more(']') {
			l = append(l, *new(T))
			j.delim('{')
			fields(&l[len(l)-1], j)
			j.delim('}')
		}
		*p = l
	}
	j.delim(']')
}

const hexDigits = "0123456789abcdef"

// nameEscapes pairs every byte Marshal writes as a backslash and a letter
// (or itself) with that letter.
var nameEscapes = map[byte]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

// appendJSONString appends s as encoding/json's Marshal writes a string:
// the bytes in nameEscapes behind a backslash, other control bytes as
// \u00XX; '<', '>' and '&' as \u003c, \u003e and \u0026; U+2028 and
// U+2029 as \u2028 and \u2029; and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if plain(c, size) {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		if e, ok := nameEscapes[byte(c)]; ok && c < utf8.RuneSelf {
			dst = append(dst, '\\', e)
		} else { // a control byte, '<', '>', '&', U+2028, U+2029, or U+FFFD for a byte of invalid UTF-8
			dst = append(dst, '\\', 'u', hexDigits[c>>12], hexDigits[c>>8&0xF], hexDigits[c>>4&0xF], hexDigits[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// plain reports whether Marshal writes the character c, size bytes of
// UTF-8 (c is utf8.RuneError and size 1 for a byte of invalid UTF-8), as
// itself in a string: not a control byte, '"' or '\\', not '<', '>' or '&'
// (escaped for HTML), not U+2028 or U+2029, and valid.
func plain(c rune, size int) bool {
	if c < utf8.RuneSelf {
		return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return c != 0x2028 && c != 0x2029 && (c != utf8.RuneError || size > 1)
}

// jsonReader reads JSON in the grammar above, front to back. The first read
// that finds anything else latches a failure: every later read returns a
// zero value and done reports false, so a parser reads all its fields and
// checks once. Every string without escapes is a view of the input, as
// with Reader.
type jsonReader struct {
	src []byte
	off int
	bad bool
}

// done reports whether every read succeeded and nothing remains unread.
func (r *jsonReader) done() bool { return !r.bad && r.off == len(r.src) }

// closed reports whether every read succeeded and all that remains is the
// '}' that closes the object.
func (r *jsonReader) closed() bool { return !r.bad && r.off == len(r.src)-1 && r.src[r.off] == '}' }

// byte reads the byte b.
func (r *jsonReader) byte(b byte) {
	if r.bad || r.off >= len(r.src) || r.src[r.off] != b {
		r.bad = true
		return
	}
	r.off++
}

// more reports whether another element of the list or map being read
// follows, reading the comma before any but the first; close is the
// delimiter that ends the list or map, which more leaves unread.
func (r *jsonReader) more(close byte) bool {
	if r.bad || r.off == 0 || r.off >= len(r.src) {
		r.bad = true
		return false
	}
	if r.src[r.off] == close {
		return false
	}
	if prev := r.src[r.off-1]; prev != '[' && prev != '{' {
		r.byte(',')
	}
	return !r.bad
}

// key reads the object key name and its colon if they come next, behind a
// comma unless the key is the object's first, and reports whether they did.
// At the start of the input it reads the '{' that opens the object first.
func (r *jsonReader) key(name string) bool {
	if r.off == 0 {
		r.byte('{')
	}
	if r.bad {
		return false
	}
	i := r.off
	if r.src[i-1] != '{' { // not the object's first key
		if i >= len(r.src) || r.src[i] != ',' {
			return false
		}
		i++
	}
	end := i + len(name) + 3
	if end > len(r.src) || r.src[i] != '"' || string(r.src[i+1:end-2]) != name || r.src[end-2] != '"' || r.src[end-1] != ':' {
		return false
	}
	r.off = end
	return true
}

// literal reads lit if it comes next, and reports whether it did.
func (r *jsonReader) literal(lit string) bool {
	if r.bad || len(r.src)-r.off < len(lit) || string(r.src[r.off:r.off+len(lit)]) != lit {
		return false
	}
	r.off += len(lit)
	return true
}

// int reads an integer as strconv writes it: no plus sign, no leading zero,
// no "-0", no fraction or exponent, and within int64's range.
func (r *jsonReader) int() int64 {
	i := r.off
	neg := i < len(r.src) && r.src[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(r.src) && '0' <= r.src[i] && r.src[i] <= '9' && i-start < 19; i++ {
		u = u*10 + uint64(r.src[i]-'0') // 19 digits do not wrap
	}
	digits := i - start
	if r.bad || digits == 0 || (r.src[start] == '0' && (digits > 1 || neg)) || (i < len(r.src) && '0' <= r.src[i] && r.src[i] <= '9') ||
		(!neg && u > math.MaxInt64) || (neg && u > -math.MinInt64) {
		r.bad = true
		return 0
	}
	r.off = i
	if neg {
		return int64(-u)
	}
	return int64(u)
}

// string reads a string: a view of the input, or, once an escape turns
// up, a view of a buffer built anew from there, which nothing else holds.
func (r *jsonReader) string() string {
	r.byte('"')
	start := r.off
	var buf []byte
	for i := start; !r.bad && i < len(r.src); {
		c, size := rune(r.src[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRune(r.src[i:])
		}
		switch {
		case c == '"':
			r.off = i + 1
			if buf != nil {
				return view(buf)
			}
			return view(r.src[start:i])
		case c == '\\':
			if buf == nil {
				buf = append(make([]byte, 0, len(r.src)-start), r.src[start:i]...)
			}
			c, size = unescape(r.src[i+1:])
			r.bad = c < 0
			buf = utf8.AppendRune(buf, c)
		case !plain(c, size):
			r.bad = true
		case buf != nil:
			buf = append(buf, r.src[i:i+size]...)
		}
		i += size
	}
	r.bad = true
	return ""
}

// unescape decodes the escape behind a backslash at the start of p, and
// returns the rune and the escape's length with the backslash, or -1
// unless Marshal writes the rune that way.
func unescape(p []byte) (rune, int) {
	if len(p) > 0 && p[0] != 'u' {
		for c, e := range nameEscapes {
			if e == p[0] {
				return rune(c), 2
			}
		}
		return -1, 0
	}
	if len(p) < 5 {
		return -1, 0
	}
	c := rune(0)
	for _, h := range p[1:5] {
		switch {
		case '0' <= h && h <= '9':
			c = c<<4 | rune(h-'0')
		case 'a' <= h && h <= 'f':
			c = c<<4 | rune(h-'a'+10)
		default:
			return -1, 0
		}
	}
	if _, named := nameEscapes[byte(c)]; (named && c < utf8.RuneSelf) || plain(c, 1) {
		return -1, 0 // Marshal writes it by name, or as itself
	}
	return c, 6
}
