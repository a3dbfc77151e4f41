package wire

import (
	"encoding/binary"
	"errors"
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
	// Shared is the rest of a body that runs on into the shared part of a
	// frame received in parts (DecodeParts): the body is Body followed by
	// Shared. Encode writes the two one after the other.
	Shared []byte
}

// Shared is the end of a body that many frames carry alike (a barrier
// release's configuration, sent to every rank), checksummed once. A frame
// whose body ends in it is sent in two parts (EncodeShared): its own bytes,
// and these, which cross the network uncopied. Nothing writes them once
// NewShared has them.
type Shared struct {
	b     []byte
	crc   uint16 // the checksum register run from zero over b
	shift uint16 // x^(8·len(b)) modulo the polynomial
}

// NewShared checksums b, which is the Shared's from then on: nothing may
// write it afterwards.
func NewShared(b []byte) Shared {
	return Shared{b: b, crc: crcUpdate(0, b), shift: crcShift(len(b))}
}

// Bytes returns the shared bytes, which nobody may write.
func (s *Shared) Bytes() []byte { return s.b }

// Part returns where the shared bytes are kept: what a message in parts
// hands the transport (transport.Conn.SendShared), which queues a pointer to
// them for every receiver.
func (s *Shared) Part() *[]byte { return &s.b }

// after returns the checksum of a head followed by s's bytes from crc, the
// head's own checksum (see crcMul).
func (s *Shared) after(crc uint16) uint16 { return crcMul(crc, s.shift) ^ s.crc }

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
	dst = append(e.appendHead(dst, env, len(env.Shared)), env.Shared...)
	crc := CRC16(dst[start:])
	return append(dst, byte(crc>>8), byte(crc))
}

// EncodeShared encodes env as Encode would with sh's bytes in place of
// env.Shared, and returns the frame without them: its own part, one
// allocation of its exact size. The frame is that part with sh's bytes
// before its last two, the checksum, which sh's precomputed checksum
// computes without reading them again. The head is written in scratch
// first, which the caller lends and gets back grown if it had to grow.
func (e *Encoder) EncodeShared(scratch *[]byte, env *Envelope, sh *Shared) []byte {
	head := e.appendHead((*scratch)[:0], env, len(sh.b))
	*scratch = head
	own := make([]byte, len(head)+2)
	copy(own, head)
	crc := sh.after(CRC16(head))
	own[len(head)], own[len(head)+1] = byte(crc>>8), byte(crc)
	return own
}

// appendHead appends env's frame, without its checksum, up to the end of
// env.Body, for a body that goes on for shared more bytes.
func (e *Encoder) appendHead(dst []byte, env *Envelope, shared int) []byte {
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
	if len(env.Body)+shared != 0 {
		flags |= flagBody
	}
	dst = append(dst, magicFrame, flags)
	if flags&flagID != 0 {
		dst = binary.AppendUvarint(dst, env.ID)
	}
	if inDict {
		dst = binary.AppendUvarint(dst, uint64(dictID))
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
		dst = binary.AppendUvarint(dst, uint64(len(env.Body)+shared))
		dst = append(dst, env.Body...)
	}
	return dst
}

// EncodePrologue marks the handshake prologue sent, so subsequent Encode
// calls emit bare frames, and returns it as a standalone CRC-framed
// message. Connection-oriented senders use this at setup (rpc's
// sender.bind says why it has stayed its own message). Every prologue is
// the same bytes, so every caller gets the same frame: nothing may write to
// it, and it can be sent without a copy.
func (e *Encoder) EncodePrologue() []byte {
	e.wrotePrologue = true
	return prologueFrame
}

// prologueFrame is the standalone prologue, full to capacity so that an
// append to it copies.
var prologueFrame = func() []byte {
	b := appendPrologue(nil)
	crc := CRC16(b)
	b = append(b, byte(crc>>8), byte(crc))
	return b[:len(b):len(b)]
}()

// appendPrologue appends the raw handshake prologue: version, dictionary
// length, dictionary hash.
func appendPrologue(dst []byte) []byte {
	dst = append(dst, magicPrologue, 'g')
	dst = binary.AppendUvarint(dst, Version)
	dst = binary.AppendUvarint(dst, uint64(DictLen()))
	h := DictHash()
	return append(dst, byte(h>>24), byte(h>>16), byte(h>>8), byte(h))
}

// Decoder decodes envelope frames from one direction of one connection.
// It is stateless across frames: a prologue is validated wherever it
// appears, and its loss costs nothing but the validation.
type Decoder struct{}

// Decode parses one received frame into env. env.Body and every string but
// a dictionary method are views of frame, not copies (see the package
// comment): frame must be a delivered payload, or a buffer the caller will
// not write again. Any error leaves env zeroed.
func (d *Decoder) Decode(frame []byte, env *Envelope) error { return d.DecodeParts(frame, nil, env) }

// DecodeParts is Decode for a frame received in two parts (EncodeShared):
// own, which is the frame but for shared, and shared, which goes just
// before own's last two bytes, the checksum. The checksum is verified over
// every byte of both. Every field lies inside one part, except that the
// body may run on from own into shared: env.Body is then its bytes in own,
// and env.Shared the rest. Every view is of the part it lies in.
func (d *Decoder) DecodeParts(own, shared []byte, env *Envelope) error {
	n := len(own) - 2
	if n < 0 {
		*env = Envelope{}
		if len(own)+len(shared) == 0 {
			return ErrFrame
		}
		return ErrCRC
	}
	return decodeParts(own[:n], shared, own[n:], env)
}

// decodeParts decodes the frame head ‖ shared ‖ tail, whose last two bytes,
// tail's, are its checksum.
func decodeParts(head, shared, tail []byte, env *Envelope) error {
	*env = Envelope{}
	t := len(tail) - 2
	if crcUpdate(crcUpdate(CRC16(head), shared), tail[:t]) != uint16(tail[t])<<8|uint16(tail[t+1]) {
		return ErrCRC
	}
	if err := decode(head, &parts{p: [2][]byte{shared, tail[:t]}}, env); err != nil {
		*env = Envelope{}
		return err
	}
	return nil
}

// parts are the parts of a frame after its head, checksum excluded: the
// shared part and the tail.
type parts struct {
	p  [2][]byte
	in int // how many have been entered
}

// more returns buf, the unread rest of the part being read, or once that is
// used up the next part that is not.
func (ps *parts) more(buf []byte) []byte {
	for len(buf) == 0 && ps.in < len(ps.p) {
		buf = ps.p[ps.in]
		ps.in++
	}
	return buf
}

// decode parses a frame that starts with buf and goes on in ps into a
// zeroed env, which an error exit may leave partly filled. A field lies
// inside one part, except the body, which may run on from the head into the
// shared part.
func decode(buf []byte, ps *parts, env *Envelope) error {
	if buf = ps.more(buf); len(buf) >= 2 && buf[0] == magicPrologue {
		if buf[1] != 'g' {
			return ErrFrame
		}
		buf = ps.more(buf[2:])
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return ErrFrame
		}
		buf = ps.more(buf[n:])
		if v != Version {
			return ErrVersion
		}
		dictLen, n := binary.Uvarint(buf)
		if n <= 0 {
			return ErrFrame
		}
		buf = ps.more(buf[n:])
		if len(buf) < 4 {
			return ErrFrame
		}
		hash := uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])
		buf = ps.more(buf[4:])
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
	buf = ps.more(buf[2:])
	kind := flags & flagKindMask
	if kind == 0 || flags&flagDictMethod != 0 && flags&flagInlineMethod != 0 {
		return ErrFrame
	}
	if flags&flagID != 0 {
		id, n := binary.Uvarint(buf)
		if n <= 0 {
			return ErrFrame
		}
		env.ID = id
		buf = ps.more(buf[n:])
	}
	if flags&flagDictMethod != 0 {
		id, n := binary.Uvarint(buf)
		if n <= 0 {
			return ErrFrame
		}
		buf = ps.more(buf[n:])
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
		env.Method = view(f)
		buf = ps.more(rest)
	}
	if flags&flagError != 0 {
		f, rest, ok := cutBytes(buf)
		if !ok {
			return ErrFrame
		}
		env.Error = view(f)
		buf = ps.more(rest)
	}
	if flags&flagCtx != 0 {
		req, rest, ok := cutBytes(buf)
		if !ok {
			return ErrFrame
		}
		span, rest, ok := cutBytes(ps.more(rest))
		if !ok {
			return ErrFrame
		}
		env.Req, env.Span = view(req), view(span)
		buf = ps.more(rest)
	}
	if flags&flagBody != 0 {
		l, n := binary.Uvarint(buf)
		if n <= 0 {
			return ErrFrame
		}
		buf = ps.more(buf[n:])
		if l <= uint64(len(buf)) {
			env.Body = buf[:l]
			buf = buf[l:]
		} else if shared := ps.p[0]; ps.in == 0 && l-uint64(len(buf)) <= uint64(len(shared)) {
			// The body runs on from the head into the shared part.
			rest := l - uint64(len(buf))
			env.Body, env.Shared = buf, shared[:rest]
			buf, ps.in = shared[rest:], 1
		} else {
			return ErrFrame
		}
		buf = ps.more(buf)
	}
	if len(buf) != 0 {
		return ErrFrame
	}
	env.Kind = kind
	return nil
}

// spare is the buffer GetBuf lends and PutBuf takes back.
var spare *[]byte

// GetBuf returns an empty encode buffer: the spare one, or a new one. Only
// the benchmark's wire.encode row calls GetBuf and PutBuf, from one
// goroutine; nothing in a run does, which borrows its encode buffers from
// its transport.Network.
func GetBuf() *[]byte {
	if b := spare; b != nil {
		spare = nil
		return b
	}
	b := make([]byte, 0, 512)
	return &b
}

// PutBuf keeps a buffer obtained from GetBuf as the spare. One grown past
// 64 KiB is dropped, so a single huge body does not keep its capacity.
func PutBuf(b *[]byte) {
	if cap(*b) > 1<<16 {
		return
	}
	*b = (*b)[:0]
	spare = b
}
