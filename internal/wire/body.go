package wire

import (
	"encoding/binary"
	"math"
)

// Typed bodies. An envelope's body is opaque bytes to the envelope codec;
// by default the RPC layer fills it with JSON. A message type whose traffic
// justifies it can instead append its fields with the primitives below and
// read them back with a Reader. Such a body starts with BodyMarker, so a
// receiver tells the two forms apart by first byte.

// BodyMarker is the first byte of a typed body. No JSON value starts with
// it (or with any byte above 0x7F).
const BodyMarker = 0xB0

// AppendVarint appends x zig-zag encoded, so small magnitudes of either
// sign (a rank, or the -1 that means "none") take one byte.
func AppendVarint(dst []byte, x int64) []byte {
	return binary.AppendUvarint(dst, uint64(x<<1)^uint64(x>>63))
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendStrings appends a count followed by that many length-prefixed
// strings.
func AppendStrings(dst []byte, list []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(list)))
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
// Nothing a Reader returns is a copy: a string is a view of the body and a
// list (StringList) is its encoding where it lies, so any one of them keeps
// the part of the frame it lies in alive (see the package comment).
type Reader struct {
	src  []byte // the part being read
	off  int
	bad  bool
	next []byte // the shared part, once src is used up
}

// NewReader reads the body head followed by shared, without its marker
// byte: a body received whole (shared nil), or one that runs on into its
// frame's shared part (Envelope.Shared). Every field lies inside one of the
// two, and nothing may write either while what the Reader returns is in use.
func NewReader(head, shared []byte) Reader { return Reader{src: head, next: shared} }

// rest returns the unread rest of the part being read, having entered the
// shared part if the head is used up.
func (r *Reader) rest() []byte {
	if r.off == len(r.src) && r.next != nil {
		r.src, r.off, r.next = r.next, 0, nil
	}
	return r.src[r.off:]
}

// Uvarint reads an unsigned varint (encoding/binary's).
func (r *Reader) Uvarint() uint64 {
	if r.bad {
		return 0
	}
	x, n := binary.Uvarint(r.rest())
	if n <= 0 {
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
	if n > uint64(len(r.src)-r.off+len(r.next)) {
		r.bad = true
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	l := r.Len()
	if l > len(r.src)-r.off {
		r.bad = true
		return ""
	}
	s := view(r.src[r.off : r.off+l])
	r.off += l
	return s
}

// StringList validates a list written by AppendStrings without decoding it:
// it walks the count and every length prefix, so a truncated or over-long
// list fails here, and returns the list's encoding as a sub-slice of the
// body (nil once the Reader has failed). It allocates nothing.
func (r *Reader) StringList() StringList {
	r.rest()
	start := r.off
	src := StringList(r.src)
	for n := r.Len(); n > 0; n-- {
		_, to, ok := src.next(r.off)
		if !ok {
			r.bad = true
			return nil
		}
		r.off = to
	}
	if r.bad {
		return nil
	}
	return src[start:r.off:r.off]
}

// StringList is a list in the encoding AppendStrings gave it, the count
// and every length-prefixed string, decoded when somebody asks: a reader
// that wants one string of a 64-entry address book pays for one. The one
// Reader.StringList returns aliases the body it was read from and has been
// walked end to end; the methods check their bounds all the same, and read
// a list that is not well formed as far as it is.
type StringList []byte

// Len returns the number of strings in the list.
func (l StringList) Len() int {
	n, _ := l.count()
	return n
}

// count reads the list's count and where its first string starts. A count
// the bytes that follow cannot hold (every string takes at least one) is
// none.
func (l StringList) count() (n, first int) {
	c, w := binary.Uvarint(l)
	if w <= 0 || c > uint64(len(l)-w) {
		return 0, 0
	}
	return int(c), w
}

// next cuts the length-prefixed string at l[off:]: its bounds, or ok false
// if the bytes do not hold one. A length below 128 is one byte, which is
// every label and address there is; the rest goes the long way.
func (l StringList) next(off int) (from, to int, ok bool) {
	if off < len(l) && l[off] < 0x80 {
		from = off + 1
		to = from + int(l[off])
		return from, to, to <= len(l)
	}
	return l.nextLong(off)
}

func (l StringList) nextLong(off int) (from, to int, ok bool) {
	if off > len(l) {
		return 0, 0, false
	}
	n, w := binary.Uvarint(l[off:])
	if w <= 0 || n > uint64(len(l)-off-w) {
		return 0, 0, false
	}
	return off + w, off + w + int(n), true
}

// At returns the i-th string: one walk over the i length prefixes before
// it, one string. ok is false when the list has no i-th string.
func (l StringList) At(i int) (s string, ok bool) {
	n, off := l.count()
	if i < 0 || i >= n {
		return "", false
	}
	for ; ; i-- {
		from, to, ok := l.next(off)
		if !ok {
			return "", false
		}
		if i == 0 {
			return string(l[from:to]), true
		}
		off = to
	}
}

// All decodes the whole list; an empty list is nil. Every string is a view
// of the list's encoding, so n strings cost the slice, and any one of them
// keeps the encoding alive.
func (l StringList) All() []string {
	n, off := l.count()
	if n == 0 {
		return nil
	}
	all := view(l)
	list := make([]string, n)
	for i := range list {
		from, to, ok := l.next(off)
		if !ok {
			return list[:i]
		}
		list[i] = all[from:to]
		off = to
	}
	return list
}

// Done reports ErrFrame if any read failed or bytes remain unread.
func (r *Reader) Done() error {
	if r.bad || r.off != len(r.src) || len(r.next) != 0 {
		return ErrFrame
	}
	return nil
}
