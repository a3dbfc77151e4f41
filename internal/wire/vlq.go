// Package wire implements the compact binary envelope codec the RPC
// layer puts on the simulated network: encoding/binary's unsigned varints,
// a builtin method-name dictionary verified at connection handshake, and
// CRC16-framed messages. An encoder appends to a buffer its caller lends
// it; in a run, rpc and gsi borrow theirs from the run's transport.Network.
//
// An envelope is a few flag-driven length-prefixed fields followed by a
// memcpy of the already-encoded body. Frames are self-describing enough to
// survive a lossy transport — every frame carries its own method
// (dictionary ID or inline name) and a trailing CRC, so a dropped frame
// never desynchronizes the decoder.
//
// Decoding copies nothing. What Decoder.Decode and DecodeParts, NewReader,
// ParseJSON and ParseJSONList read is a delivered payload
// (transport.Conn.TryRecv), and nothing writes to it: not the receiver, not
// the sender, and not the other receivers of a part many frames share
// (Shared). So every string and Body they return is a view of the part it
// lies in, and the parts are the only buffers a received message needs; a
// caller that decodes a buffer it will write again passes a copy. A view
// keeps its whole part alive: a view of a frame's own part keeps that frame,
// and a view of a shared part keeps the one array every receiver shares.
// Whoever keeps a decoded string past its message copies it (strings.Clone)
// where it keeps it.
package wire

import (
	"encoding/binary"
	"unsafe"
)

// cutBytes splits a length-prefixed field from the front of buf, returning
// the field, the remainder, and ok.
func cutBytes(buf []byte) (field, rest []byte, ok bool) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || l > uint64(len(buf)-n) {
		return nil, nil, false
	}
	return buf[n : n+int(l)], buf[n+int(l):], true
}

// view returns b as a string that shares b's bytes, which is sound because
// nothing writes to a decoded frame (see the package comment). It is the
// package's one use of unsafe. An empty b is "", which pins no frame.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
