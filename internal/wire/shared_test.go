package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// sharedLengths are the lengths the checksum of a frame in parts is tried
// at: empty, short, and either side of every multiple of the eight-byte
// stride up to three strides, and one long.
var sharedLengths = []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 300}

// TestSharedChecksumCombines: the checksum of a head followed by a shared
// part, computed from the head's checksum and what NewShared kept, is the
// checksum of the two bytes end to end, for heads and shared parts of
// every length around the slicing-by-8 stride, empty ones included.
func TestSharedChecksumCombines(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, h := range sharedLengths {
		for _, n := range sharedLengths {
			for trial := 0; trial < 20; trial++ {
				data := make([]byte, h+n)
				rng.Read(data)
				sh := NewShared(data[h:])
				if got, want := sh.after(CRC16(data[:h])), CRC16(data); got != want {
					t.Fatalf("head %d + shared %d bytes: combined %#04x, CRC16 of both %#04x", h, n, got, want)
				}
			}
		}
	}
}

// TestEncodeSharedIsEncodeInParts: a frame whose body ends in a Shared is
// Encode's frame byte for byte, in two parts: an own part of exactly its
// length, and the shared bytes themselves. DecodeParts reads it back with
// the body split where it was, every field a view of the part it lies in,
// and a flipped byte anywhere in either part fails the checksum.
func TestEncodeSharedIsEncodeInParts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, prologue := range []bool{false, true} {
		for _, h := range sharedLengths {
			for _, n := range sharedLengths {
				body := make([]byte, h+n)
				rng.Read(body)
				env := Envelope{Kind: KindReply, ID: 7, Req: "req-1", Span: "/call:checkin#7/serve", Body: body}
				whole, parts := Encoder{wrotePrologue: !prologue}, Encoder{wrotePrologue: !prologue}
				want := whole.Encode(nil, &env)
				sh := NewShared(body[h:])
				env.Body = body[:h]
				own := parts.EncodeShared(new([]byte), &env, &sh)
				if cap(own) != len(own) {
					t.Errorf("head %d + shared %d: own part of %d bytes in %d", h, n, len(own), cap(own))
				}
				k := len(own) - 2
				if got := append(append(own[:k:k], sh.Bytes()...), own[k:]...); !bytes.Equal(got, want) {
					t.Fatalf("head %d + shared %d: frame in parts\n%x\nwant Encode's\n%x", h, n, got, want)
				}
				var dec Decoder
				var got Envelope
				if err := dec.DecodeParts(own, sh.Bytes(), &got); err != nil {
					t.Fatalf("head %d + shared %d: DecodeParts: %v", h, n, err)
				}
				if joined := append(bytes.Clone(got.Body), got.Shared...); got.ID != 7 || got.Span != env.Span || !bytes.Equal(joined, body) {
					t.Fatalf("head %d + shared %d: decoded %+v", h, n, got)
				}
				if h > 0 && n > 0 && (!inside(own, got.Body) || !inside(sh.Bytes(), got.Shared)) {
					t.Errorf("head %d + shared %d: the body is not a view of the two parts", h, n)
				}
				if !inside(own, got.Req, got.Span) {
					t.Errorf("head %d + shared %d: the span context is not a view of the own part", h, n)
				}
				for _, part := range [][]byte{own, sh.Bytes()} {
					for i := range part {
						part[i] ^= 0x5A
						if err := dec.DecodeParts(own, sh.Bytes(), &got); !errors.Is(err, ErrCRC) {
							t.Fatalf("head %d + shared %d: a flipped byte decoded with %v, want ErrCRC", h, n, err)
						}
						part[i] ^= 0x5A
					}
				}
			}
		}
	}
}

// fieldStarts returns where each field of a frame that decodes starts, the
// checksum's included: the cuts a sender of a frame in parts may make.
func fieldStarts(frame []byte) []int {
	off := 0
	starts := []int{0}
	mark := func() { starts = append(starts, off) }
	uvarint := func() uint64 {
		x, n := binary.Uvarint(frame[off:])
		off += n
		return x
	}
	field := func() {
		l := uvarint()
		off += int(l)
		mark()
	}
	if frame[0] == magicPrologue {
		off += 2
		mark()
		uvarint() // version
		mark()
		uvarint() // dictionary length
		mark()
		off += 4 // dictionary hash
		mark()
	}
	flags := frame[off+1]
	off += 2
	mark()
	if flags&flagID != 0 {
		uvarint()
		mark()
	}
	if flags&flagDictMethod != 0 {
		uvarint()
		mark()
	} else if flags&flagInlineMethod != 0 {
		field()
	}
	if flags&flagError != 0 {
		field()
	}
	if flags&flagCtx != 0 {
		field()
		field()
	}
	if flags&flagBody != 0 {
		field()
	}
	return starts
}

// insideOne reports whether every byte of each field lies in one of parts.
func insideOne[T string | []byte](parts [3][]byte, fields ...T) bool {
	for _, f := range fields {
		if len(f) != 0 && !inside(parts[0], f) && !inside(parts[1], f) && !inside(parts[2], f) {
			return false
		}
	}
	return true
}
