package wire

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"
)

// sampleEnvelopes covers every field combination the RPC layer produces.
func sampleEnvelopes() []Envelope {
	return []Envelope{
		{Kind: KindCall, ID: 1, Method: "submit", Req: "req-1", Span: "/call:submit#1", Body: []byte(`{"rsl":"+(executable=app)"}`)},
		{Kind: KindCall, ID: 7, Method: "a-method-outside-the-dictionary", Body: []byte(`{"x":1}`)},
		{Kind: KindReply, ID: 1, Body: []byte(`{"contact":"m0:gram/j1"}`)},
		{Kind: KindReply, ID: 9, Error: "gram: no such job"},
		{Kind: KindNotify, Method: "job-state", Req: "req-2", Span: "/submit/serve", Body: []byte(`{"state":"ACTIVE"}`)},
		{Kind: KindNotify, Method: "checkin"},
		{Kind: KindCall, ID: 1<<64 - 1, Method: "heartbeat", Body: []byte(`"` + string(bytes.Repeat([]byte{'x'}, 300)) + `"`)},
		{Kind: KindCall, ID: 3, Method: "query"},
	}
}

func envEqual(a, b Envelope) bool {
	return a.Kind == b.Kind && a.ID == b.ID && a.Method == b.Method &&
		a.Error == b.Error && a.Req == b.Req && a.Span == b.Span &&
		bytes.Equal(a.Body, b.Body) && bytes.Equal(a.Shared, b.Shared)
}

// inside reports whether every byte of each field lies in frame: whether
// flipping every byte of frame flips every byte of them. It leaves frame as
// it found it.
func inside[T string | []byte](frame []byte, fields ...T) bool {
	before := make([][]byte, len(fields))
	for i, f := range fields {
		before[i] = bytes.Clone([]byte(f))
	}
	flip := func() {
		for i := range frame {
			frame[i] ^= 0xFF
		}
	}
	flip()
	defer flip()
	for i, f := range fields {
		for j := 0; j < len(f); j++ {
			if f[j] != before[i][j]^0xFF {
				return false
			}
		}
	}
	return true
}

// TestDecodeAllocatesNothing: a frame that carries every field decodes
// into views of itself, with no allocation; only a dictionary method is
// the table's string.
func TestDecodeAllocatesNothing(t *testing.T) {
	want := Envelope{Kind: KindReply, ID: 300, Method: "a-method-outside-the-dictionary", Error: "gram: no such job",
		Req: "req-1", Span: "req/call:status#300", Body: []byte(`{"contact":"m0:gram/j1"}`)}
	var enc Encoder
	enc.wrotePrologue = true
	frame := enc.Encode(nil, &want)
	var dec Decoder
	var got Envelope
	if allocs := testing.AllocsPerRun(100, func() {
		if err := dec.Decode(frame, &got); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decoding a frame with every field cost %v allocations, want 0", allocs)
	}
	if !envEqual(want, got) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if !inside(frame, got.Method, got.Error, got.Req, got.Span) || !inside(frame, got.Body) {
		t.Error("a decoded field is a copy, not a view of the frame")
	}
}

func TestWireRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	for i, want := range sampleEnvelopes() {
		frame := enc.Encode(nil, &want)
		var got Envelope
		if err := dec.Decode(frame, &got); err != nil {
			t.Fatalf("envelope %d: decode: %v", i, err)
		}
		if !envEqual(want, got) {
			t.Errorf("envelope %d: round trip mismatch:\nwant %+v\ngot  %+v", i, want, got)
		}
		if i == 0 && frame[0] != magicPrologue {
			t.Errorf("first frame does not start with the handshake prologue (got 0x%02x)", frame[0])
		}
		if i > 0 && frame[0] != magicFrame {
			t.Errorf("envelope %d: non-first frame carries a prologue (got 0x%02x)", i, frame[0])
		}
	}
	// The codec is payload-agnostic: bodies need not be JSON.
	raw := Envelope{Kind: KindNotify, Method: "blob", Body: bytes.Repeat([]byte{magicFrame, magicPrologue, '{'}, 100)}
	frame := enc.Encode(nil, &raw)
	var got Envelope
	if err := dec.Decode(frame, &got); err != nil || !envEqual(raw, got) {
		t.Errorf("arbitrary-bytes body round trip failed: err=%v", err)
	}
}

func TestWireCRCCorruptionDetected(t *testing.T) {
	var enc Encoder
	env := Envelope{Kind: KindCall, ID: 5, Method: "submit", Body: []byte(`{"n":1}`)}
	frame := enc.Encode(nil, &env)
	var dec Decoder
	for i := range frame {
		corrupt := append([]byte(nil), frame...)
		corrupt[i] ^= 0x40
		var got Envelope
		if err := dec.Decode(corrupt, &got); err == nil {
			// A flip may still parse only if it produced a valid frame of
			// identical content — impossible with a single-bit CRC16 flip.
			t.Errorf("bit flip at byte %d went undetected", i)
		} else if got.Kind != 0 || got.Body != nil {
			t.Errorf("bit flip at byte %d: decode error left fields populated: %+v", i, got)
		}
	}
}

func TestWireTruncatedFrames(t *testing.T) {
	var enc Encoder
	env := Envelope{Kind: KindNotify, Method: "job-state", Req: "r", Span: "s", Body: []byte(`{"a":1}`)}
	frame := enc.Encode(nil, &env)
	var dec Decoder
	for n := 0; n < len(frame); n++ {
		var got Envelope
		if err := dec.Decode(frame[:n], &got); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully: %+v", n, got)
		}
	}
}

func TestWireDictHit(t *testing.T) {
	var enc Encoder
	enc.wrotePrologue = true
	inDict := enc.Encode(nil, &Envelope{Kind: KindNotify, Method: "submit"})
	var enc2 Encoder
	enc2.wrotePrologue = true
	outDict := enc2.Encode(nil, &Envelope{Kind: KindNotify, Method: "submitx"})
	if len(inDict) >= len(outDict) {
		t.Errorf("dictionary method frame (%dB) not smaller than inline method frame (%dB)", len(inDict), len(outDict))
	}
	// The dictionary must hold the hot-path methods.
	for _, m := range []string{"submit", "job-state", "checkin", "heartbeat", "query", "initgroups"} {
		if _, ok := methodID(m); !ok {
			t.Errorf("method %q missing from the builtin dictionary", m)
		}
	}
}

// sealed appends the CRC16 of body, making it a frame that passes the
// checksum whatever it holds.
func sealed(body ...byte) []byte {
	crc := CRC16(body)
	return append(body, byte(crc>>8), byte(crc))
}

// TestDecodeErrorLeavesEnvelopeZeroed: every error exit, including the ones
// behind fields already parsed, hands back a zero envelope — and a frame
// that starts with '{' is checksummed like any other. A varint that runs
// past ten bytes, or whose tenth byte overflows 64 bits, is malformed at
// every place a frame has one (binary.Uvarint reports both as a negative
// count).
func TestDecodeErrorLeavesEnvelopeZeroed(t *testing.T) {
	call := KindCall | flagID
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 1)
	overflow := append(bytes.Repeat([]byte{0xFF}, 9), 2)
	frame := func(head []byte, varint []byte) []byte { return sealed(slices.Concat(head, varint)...) }
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrFrame},
		{"json envelope", []byte(`{"kind":"call","id":5,"method":"submit"}`), ErrCRC},
		{"sealed json envelope", sealed([]byte(`{"kind":"call","id":5}`)...), ErrFrame},
		{"id, then dictionary method id missing", sealed(magicFrame, call|flagDictMethod, 5), ErrFrame},
		{"id, then dictionary method id unknown", sealed(magicFrame, call|flagDictMethod, 5, 0xFF, 0x7F), ErrFrame},
		{"id, then inline method cut short", sealed(magicFrame, call|flagInlineMethod, 5, 9, 'x'), ErrFrame},
		{"id and method, then error cut short", sealed(magicFrame, call|flagInlineMethod|flagError, 5, 1, 'm', 9), ErrFrame},
		{"id and method, then context cut short", sealed(magicFrame, call|flagInlineMethod|flagCtx, 5, 1, 'm', 1, 'r', 9), ErrFrame},
		{"id and method, then body cut short", sealed(magicFrame, call|flagInlineMethod|flagBody, 5, 1, 'm', 9, 'b'), ErrFrame},
		{"whole envelope, then a trailing byte", sealed(magicFrame, call|flagInlineMethod|flagBody, 5, 1, 'm', 1, 'b', 0), ErrFrame},
		{"prologue version overlong", frame([]byte{magicPrologue, 'g'}, overlong), ErrFrame},
		{"prologue dictionary length overflowing", frame([]byte{magicPrologue, 'g', Version}, overflow), ErrFrame},
		{"id overlong", frame([]byte{magicFrame, call}, overlong), ErrFrame},
		{"id overflowing", frame([]byte{magicFrame, call}, overflow), ErrFrame},
		{"id, then dictionary method id overlong", frame([]byte{magicFrame, call | flagDictMethod, 5}, overlong), ErrFrame},
		{"id, then inline method length overflowing", frame([]byte{magicFrame, call | flagInlineMethod, 5}, overflow), ErrFrame},
		{"id and method, then body length overlong", frame([]byte{magicFrame, call | flagInlineMethod | flagBody, 5, 1, 'm'}, overlong), ErrFrame},
	}
	var dec Decoder
	for _, tc := range cases {
		env := Envelope{Kind: KindReply, ID: 99, Method: "stale", Error: "stale", Req: "stale", Span: "stale", Body: []byte("stale")}
		if err := dec.Decode(tc.frame, &env); err != tc.want {
			t.Errorf("%s: Decode(% x) = %v, want %v", tc.name, tc.frame, err, tc.want)
		}
		if !envEqual(env, Envelope{}) || env.Body != nil {
			t.Errorf("%s: decode error left the envelope populated: %+v", tc.name, env)
		}
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("CRC16(check vector) = %#04x, want 0x29b1", got)
	}
}

// TestGetBufSpare: the buffer PutBuf keeps is the one GetBuf returns next,
// emptied.
func TestGetBufSpare(t *testing.T) {
	b := GetBuf()
	*b = append(*b, 1, 2, 3)
	PutBuf(b)
	b2 := GetBuf()
	if b2 != b || len(*b2) != 0 {
		t.Errorf("GetBuf after PutBuf = %p len %d, want the spare %p emptied", b2, len(*b2), b)
	}
	PutBuf(b2)
}

// TestStandalonePrologue: EncodePrologue emits a CRC-framed prologue with
// no envelope; the decoder validates it, leaves env zeroed (Kind 0), and
// subsequent frames from the same encoder carry no prologue of their own.
func TestStandalonePrologue(t *testing.T) {
	var enc Encoder
	var dec Decoder
	prologue := enc.EncodePrologue()
	var env Envelope
	if err := dec.Decode(prologue, &env); err != nil {
		t.Fatalf("Decode(standalone prologue) = %v", err)
	}
	if env.Kind != 0 {
		t.Fatalf("prologue-only frame decoded to kind %d, want 0", env.Kind)
	}
	// A corrupted prologue must still fail its CRC.
	bad := append([]byte(nil), prologue...)
	bad[2] ^= 0xFF
	if err := dec.Decode(bad, &env); err != ErrCRC {
		t.Fatalf("Decode(corrupted prologue) = %v, want ErrCRC", err)
	}
	// The next data frame is bare: no second prologue.
	frame := enc.Encode(nil, &Envelope{Kind: KindNotify, Method: "status"})
	if frame[0] != 0xC7 {
		t.Fatalf("frame after EncodePrologue starts with %#x, want bare 0xC7", frame[0])
	}
	if err := dec.Decode(frame, &env); err != nil || env.Method != "status" {
		t.Fatalf("bare frame after prologue: env %+v, err %v", env, err)
	}
}

// TestDictHashMatchesTable recomputes the FNV-32a over the builtin table,
// every name followed by a NUL, and requires the value the package computed
// once at initialisation to be it — and a prologue to carry it, and to cost
// nothing to build or to check.
func TestDictHashMatchesTable(t *testing.T) {
	h := fnv.New32a()
	for _, name := range builtin {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	want := h.Sum32()
	if got := DictHash(); got != want {
		t.Fatalf("DictHash() = %#08x, the table hashes to %#08x", got, want)
	}
	var enc Encoder
	prologue := enc.EncodePrologue()
	// magic, 'g', version, dictionary length (one byte each), hash, CRC16.
	if got := binary.BigEndian.Uint32(prologue[4:8]); got != want || DictLen() != len(builtin) || int(prologue[3]) != len(builtin) {
		t.Errorf("prologue % x carries hash %#08x and length %d, want %#08x and %d", prologue, got, prologue[3], want, len(builtin))
	}
	var dec Decoder
	var env Envelope
	if allocs := testing.AllocsPerRun(100, func() {
		var enc Encoder
		if err := dec.Decode(enc.EncodePrologue(), &env); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a prologue encoded and decoded allocates %v times, want 0", allocs)
	}
}
