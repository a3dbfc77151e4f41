package wire

import "math"

// Typed bodies. An envelope's body is opaque bytes to the envelope codec;
// by default the RPC layer fills it with JSON. A message type whose traffic
// justifies it can instead append its fields with the primitives below and
// read them back with a Reader. Such a body starts with BodyMarker, so a
// receiver tells the two forms apart by first byte — the rule the frame
// decoder uses to tell binary frames from JSON envelopes.

// BodyMarker is the first byte of a typed body. No JSON value starts with
// it (or with any byte above 0x7F).
const BodyMarker = 0xB0

// AppendVarint appends x zig-zag encoded, so small magnitudes of either
// sign (a rank, or the -1 that means "none") take one byte.
func AppendVarint(dst []byte, x int64) []byte {
	return AppendUvarint(dst, uint64(x<<1)^uint64(x>>63))
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendStrings appends a count followed by that many length-prefixed
// strings.
func AppendStrings(dst []byte, list []string) []byte {
	dst = AppendUvarint(dst, uint64(len(list)))
	for _, s := range list {
		dst = AppendString(dst, s)
	}
	return dst
}

// Reader consumes the fields of a typed body front to back. The first
// malformed field latches the error: every later read returns a zero value
// and Done reports ErrFrame, so a parser reads all its fields and checks
// once.
//
// Every string a Reader returns is a substring of one copy of the body,
// made at the first non-empty string read: a message with a 64-entry
// address book costs one string allocation, not 64. The price is that any
// one of those strings keeps the whole copy alive.
type Reader struct {
	src []byte
	off int
	str string
	bad bool
}

// NewReader reads the body src, which must not include the marker byte.
func NewReader(src []byte) Reader { return Reader{src: src} }

// Uvarint reads a VLQ integer.
func (r *Reader) Uvarint() uint64 {
	if r.bad {
		return 0
	}
	x, n := Uvarint(r.src[r.off:])
	if n == 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return x
}

// Int reads a zig-zag integer written by AppendVarint; one that does not
// fit an int is malformed.
func (r *Reader) Int() int {
	u := r.Uvarint()
	x := int64(u>>1) ^ -int64(u&1)
	if x < math.MinInt || x > math.MaxInt {
		r.bad = true
		return 0
	}
	return int(x)
}

// Len reads a list count. Every list element takes at least one byte, so a
// count larger than the bytes that remain is malformed — and is rejected
// here, before a caller sizes an allocation by it.
func (r *Reader) Len() int {
	n := r.Uvarint()
	if n > uint64(len(r.src)-r.off) {
		r.bad = true
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	l := r.Len()
	if l == 0 {
		return ""
	}
	if r.str == "" {
		r.str = string(r.src)
	}
	s := r.str[r.off : r.off+l]
	r.off += l
	return s
}

// Strings reads a list written by AppendStrings; an empty list is nil.
func (r *Reader) Strings() []string {
	n := r.Len()
	if n == 0 {
		return nil
	}
	list := make([]string, n)
	for i := range list {
		list[i] = r.String()
	}
	if r.bad {
		return nil
	}
	return list
}

// Done reports ErrFrame if any read failed or bytes remain unread.
func (r *Reader) Done() error {
	if r.bad || r.off != len(r.src) {
		return ErrFrame
	}
	return nil
}
