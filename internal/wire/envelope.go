package wire

import (
	"errors"
	"sync"
)

// Envelope kinds, carried in the low two flag bits of a frame.
const (
	KindCall   byte = 1
	KindReply  byte = 2
	KindNotify byte = 3
)

// Version is the wire protocol version the handshake prologue announces.
const Version = 1

// Frame markers.
const (
	magicFrame    = 0xC7 // every envelope frame
	magicPrologue = 0xC0 // handshake prologue, prefixed to a direction's first frame
)

// Flag bits of a frame.
const (
	flagKindMask     = 0x03
	flagID           = 1 << 2 // envelope carries a call/reply ID
	flagDictMethod   = 1 << 3 // method as builtin dictionary ID
	flagInlineMethod = 1 << 4 // method as inline length-prefixed name
	flagError        = 1 << 5 // reply carries a remote error string
	flagCtx          = 1 << 6 // causal span context (req + span strings)
	flagBody         = 1 << 7 // length-prefixed body bytes follow
)

// Decode errors.
var (
	ErrFrame   = errors.New("wire: malformed frame")
	ErrCRC     = errors.New("wire: bad frame checksum")
	ErrVersion = errors.New("wire: unsupported protocol version")
	ErrDict    = errors.New("wire: dictionary mismatch in handshake prologue")
)

// Envelope is one RPC message. Body holds the already-encoded application
// payload (JSON, or a typed body behind BodyMarker); the envelope codec
// treats it as opaque bytes.
type Envelope struct {
	Kind   byte
	ID     uint64
	Method string
	Error  string
	Req    string // causal span context: request ID
	Span   string // causal span context: span path
	Body   []byte
}

// Encoder encodes envelope frames for one direction of one
// connection. Its only state is whether the handshake prologue has been
// sent; frames themselves are stateless and independently decodable, so a
// frame lost in flight never desynchronizes the peer.
type Encoder struct {
	wrotePrologue bool
}

// Encode appends env as a frame to dst and returns the extended
// slice. The first frame an Encoder produces is prefixed with the
// handshake prologue (version, dictionary length, dictionary hash); the
// trailing CRC16 covers prologue and frame alike.
func (e *Encoder) Encode(dst []byte, env *Envelope) []byte {
	start := len(dst)
	if !e.wrotePrologue {
		e.wrotePrologue = true
		dst = appendPrologue(dst)
	}
	flags := env.Kind & flagKindMask
	dictID, inDict := uint32(0), false
	if env.Method != "" {
		if id, ok := methodID(env.Method); ok {
			dictID, inDict = id, true
			flags |= flagDictMethod
		} else {
			flags |= flagInlineMethod
		}
	}
	if env.ID != 0 {
		flags |= flagID
	}
	if env.Error != "" {
		flags |= flagError
	}
	if env.Req != "" || env.Span != "" {
		flags |= flagCtx
	}
	if len(env.Body) != 0 {
		flags |= flagBody
	}
	dst = append(dst, magicFrame, flags)
	if flags&flagID != 0 {
		dst = AppendUvarint(dst, env.ID)
	}
	if inDict {
		dst = AppendUvarint(dst, uint64(dictID))
	} else if flags&flagInlineMethod != 0 {
		dst = AppendString(dst, env.Method)
	}
	if flags&flagError != 0 {
		dst = AppendString(dst, env.Error)
	}
	if flags&flagCtx != 0 {
		dst = AppendString(dst, env.Req)
		dst = AppendString(dst, env.Span)
	}
	if flags&flagBody != 0 {
		dst = appendBytes(dst, env.Body)
	}
	crc := CRC16(dst[start:])
	return append(dst, byte(crc>>8), byte(crc))
}

// EncodePrologue appends the handshake prologue as a standalone
// CRC-framed message and marks it sent, so subsequent Encode calls emit
// bare frames. Connection-oriented senders use this at setup (rpc's
// sender.bind says why it has stayed its own message).
func (e *Encoder) EncodePrologue(dst []byte) []byte {
	start := len(dst)
	e.wrotePrologue = true
	dst = appendPrologue(dst)
	crc := CRC16(dst[start:])
	return append(dst, byte(crc>>8), byte(crc))
}

// appendPrologue appends the raw handshake prologue: version, dictionary
// length, dictionary hash.
func appendPrologue(dst []byte) []byte {
	dst = append(dst, magicPrologue, 'g')
	dst = AppendUvarint(dst, Version)
	dst = AppendUvarint(dst, uint64(DictLen()))
	h := DictHash()
	return append(dst, byte(h>>24), byte(h>>16), byte(h>>8), byte(h))
}

// Decoder decodes envelope frames from one direction of one connection.
// It is stateless across frames: a prologue is validated wherever it
// appears, and its loss costs nothing but the validation.
type Decoder struct{}

// Decode parses one received frame into env. env.Body aliases frame's
// storage — valid for as long as the caller keeps frame alive, which the
// receive path does (each delivered message owns its buffer). Any error
// leaves env zeroed.
func (d *Decoder) Decode(frame []byte, env *Envelope) error {
	*env = Envelope{}
	if err := decode(frame, env); err != nil {
		*env = Envelope{}
		return err
	}
	return nil
}

// decode is Decode into a zeroed env, which an error exit may leave partly
// filled.
func decode(frame []byte, env *Envelope) error {
	if len(frame) == 0 {
		return ErrFrame
	}
	buf, ok := checkCRC(frame)
	if !ok {
		return ErrCRC
	}
	if len(buf) >= 2 && buf[0] == magicPrologue {
		if buf[1] != 'g' {
			return ErrFrame
		}
		buf = buf[2:]
		v, n := Uvarint(buf)
		if n == 0 {
			return ErrFrame
		}
		buf = buf[n:]
		if v != Version {
			return ErrVersion
		}
		dictLen, n := Uvarint(buf)
		if n == 0 || len(buf) < n+4 {
			return ErrFrame
		}
		buf = buf[n:]
		hash := uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])
		buf = buf[4:]
		if dictLen != uint64(DictLen()) || hash != DictHash() {
			return ErrDict
		}
		if len(buf) == 0 {
			// Standalone prologue frame: validated, carries no envelope.
			// env stays zeroed (Kind 0); receive loops skip it.
			return nil
		}
	}
	if len(buf) < 2 || buf[0] != magicFrame {
		return ErrFrame
	}
	flags := buf[1]
	buf = buf[2:]
	kind := flags & flagKindMask
	if kind == 0 || flags&flagDictMethod != 0 && flags&flagInlineMethod != 0 {
		return ErrFrame
	}
	if flags&flagID != 0 {
		id, n := Uvarint(buf)
		if n == 0 {
			return ErrFrame
		}
		env.ID = id
		buf = buf[n:]
	}
	if flags&flagDictMethod != 0 {
		id, n := Uvarint(buf)
		if n == 0 {
			return ErrFrame
		}
		buf = buf[n:]
		name, ok := methodName(id)
		if !ok {
			return ErrFrame
		}
		env.Method = name
	} else if flags&flagInlineMethod != 0 {
		f, rest, ok := cutBytes(buf)
		if !ok {
			return ErrFrame
		}
		env.Method = string(f)
		buf = rest
	}
	if flags&flagError != 0 {
		f, rest, ok := cutBytes(buf)
		if !ok {
			return ErrFrame
		}
		env.Error = string(f)
		buf = rest
	}
	if flags&flagCtx != 0 {
		req, rest, ok := cutBytes(buf)
		if !ok {
			return ErrFrame
		}
		span, rest2, ok := cutBytes(rest)
		if !ok {
			return ErrFrame
		}
		env.Req, env.Span = string(req), string(span)
		buf = rest2
	}
	if flags&flagBody != 0 {
		f, rest, ok := cutBytes(buf)
		if !ok {
			return ErrFrame
		}
		env.Body = f
		buf = rest
	}
	if len(buf) != 0 {
		return ErrFrame
	}
	env.Kind = kind
	return nil
}

// bufPool recycles envelope encode buffers: Encode appends into a pooled
// slice, the transport copies the frame onto the wire, and the buffer
// returns to the pool — the steady-state encode path allocates nothing.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// GetBuf returns a pooled, empty encode buffer.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf recycles a buffer obtained from GetBuf. Oversized buffers are
// dropped so one huge body doesn't pin its capacity in the pool.
func PutBuf(b *[]byte) {
	if cap(*b) > 1<<16 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
