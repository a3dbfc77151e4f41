package wire

import (
	"bytes"
	"testing"
)

// FuzzWireEnvelope drives the decoder with arbitrary bytes and, whenever
// they decode, re-encodes and re-decodes to prove the codec is a
// round-trip fixpoint. The seed corpus holds valid frames (each with and
// without prologue), JSON text, and classic parser traps.
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
