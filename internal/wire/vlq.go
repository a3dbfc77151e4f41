// Package wire implements the compact binary envelope codec the RPC
// layer puts on the simulated network: VLQ (varint) integers, a builtin
// method-name dictionary verified at connection handshake, CRC16-framed
// messages, and pooled encode buffers.
//
// An envelope is a few flag-driven length-prefixed fields followed by a
// memcpy of the already-encoded body. Frames are self-describing enough to
// survive a lossy transport — every frame carries its own method
// (dictionary ID or inline name) and a trailing CRC, so a dropped frame
// never desynchronizes the decoder.
package wire

// VLQ integers: 7 value bits per byte, least-significant group first, high
// bit set on every byte except the last. Identical to encoding/binary's
// unsigned varint, implemented here so the codec owns (and benchmarks) its
// own hot path.

// maxVarintLen is the longest VLQ encoding of a uint64 (10 bytes).
const maxVarintLen = 10

// AppendUvarint appends the VLQ encoding of x to dst and returns the
// extended slice.
func AppendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// Uvarint decodes a VLQ integer from the front of buf. It returns the
// value and the number of bytes consumed; n == 0 reports a truncated or
// overlong encoding.
func Uvarint(buf []byte) (x uint64, n int) {
	var shift uint
	for i := 0; i < len(buf); i++ {
		if i == maxVarintLen {
			return 0, 0 // overlong
		}
		b := buf[i]
		if b < 0x80 {
			if i == maxVarintLen-1 && b > 1 {
				return 0, 0 // overflows uint64
			}
			return x | uint64(b)<<shift, i + 1
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0 // truncated
}

// appendBytes appends a length-prefixed byte slice.
func appendBytes(dst []byte, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// cutBytes splits a length-prefixed field from the front of buf, returning
// the field, the remainder, and ok.
func cutBytes(buf []byte) (field, rest []byte, ok bool) {
	l, n := Uvarint(buf)
	if n == 0 || l > uint64(len(buf)-n) {
		return nil, nil, false
	}
	return buf[n : n+int(l)], buf[n+int(l):], true
}
