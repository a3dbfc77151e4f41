package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWireEnvelope drives the decoder with arbitrary bytes and, whenever
// they decode, checks that every decoded string but a dictionary method,
// and the body, lie inside the input frame, then re-encodes and re-decodes
// to prove the codec is a round-trip fixpoint. A frame that decodes is
// decoded again in three parts, head, shared and tail, cut at every pair of
// field boundaries: the envelope is the same, every view lies inside one
// part, and a flipped byte in any part fails the checksum. The seed corpus
// holds valid frames (each with and without prologue), JSON text, and
// classic parser traps.
func FuzzWireEnvelope(f *testing.F) {
	for _, env := range sampleEnvelopes() {
		env := env
		var enc Encoder
		f.Add(enc.Encode(nil, &env))
		f.Add(enc.Encode(nil, &env))
	}
	f.Add([]byte{})
	f.Add([]byte{magicFrame})
	f.Add([]byte{magicFrame, 0xFF})
	f.Add([]byte{magicPrologue, 'g'})
	f.Add([]byte(`{"kind":"call","id":1}`))
	f.Add([]byte(`{"kind":"frobnicate"}`))
	f.Add([]byte(`{`))
	f.Add(bytes.Repeat([]byte{0x80}, 64))                                                      // overlong varints everywhere
	f.Add(append([]byte{magicFrame, flagBody | byte(KindCall)}, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)) // huge body length
	f.Add(sealed(magicFrame, KindCall|flagID|flagDictMethod, 5))                               // an id, then the method id missing
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data) // inside writes to it
		var dec Decoder
		var env Envelope
		if err := dec.Decode(data, &env); err != nil {
			if !envEqual(env, Envelope{}) || env.Body != nil {
				t.Fatalf("decode error left envelope populated: %+v", env)
			}
			return
		}
		if env.Kind == 0 {
			return // a standalone prologue: validated, carries no envelope
		}
		method := env.Method
		if _, inDict := methodID(method); inDict {
			method = "" // the table's string, or a view of an inline name
		}
		if !inside(data, method, env.Error, env.Req, env.Span) || !inside(data, env.Body) {
			t.Fatalf("a decoded field is not a view of the frame: %+v", env)
		}
		starts := fieldStarts(data)
		for i, cut := range starts {
			for _, cut2 := range starts[i:] {
				parts := [3][]byte{data[:cut], data[cut:cut2], data[cut2:]}
				var inParts Envelope
				if err := decodeParts(parts[0], parts[1], parts[2], &inParts); err != nil || !envEqual(env, inParts) {
					t.Fatalf("cut at %d and %d: %v, %+v; want %+v", cut, cut2, err, inParts, env)
				}
				if !insideOne(parts, method, inParts.Error, inParts.Req, inParts.Span) || !insideOne(parts, inParts.Body) {
					t.Fatalf("cut at %d and %d: a decoded field is not a view of one part: %+v", cut, cut2, inParts)
				}
				for _, part := range parts {
					if len(part) == 0 {
						continue
					}
					part[len(part)/2] ^= 0xFF
					err := decodeParts(parts[0], parts[1], parts[2], &inParts)
					part[len(part)/2] ^= 0xFF
					if !errors.Is(err, ErrCRC) {
						t.Fatalf("cut at %d and %d: a flipped byte decoded with %v, want ErrCRC", cut, cut2, err)
					}
				}
			}
		}
		// Whatever decoded must survive a round trip bit for bit.
		var enc Encoder
		enc.wrotePrologue = true
		frame := enc.Encode(nil, &env)
		var again Envelope
		if err := dec.Decode(frame, &again); err != nil {
			t.Fatalf("re-decode of re-encoded envelope failed: %v (env %+v)", err, env)
		}
		if !envEqual(env, again) {
			t.Fatalf("round trip not a fixpoint:\nfirst  %+v\nsecond %+v", env, again)
		}
	})
}
