package wire

// CRC16 (CCITT-FALSE: polynomial 0x1021, initial value 0xFFFF) frames
// every envelope. The simulated transport never corrupts bytes, but
// the checksum is what lets the decoder reject garbage cheaply — a frame
// that is not a frame (fuzzed input, a stray JSON or handshake fragment)
// fails the CRC before any field is parsed.

const crcPoly = 0x1021

// crcTables drives slicing-by-8: crcTables[k][b] is the checksum
// contribution of byte b followed by k zero bytes, so eight input bytes
// fold into the register with eight independent lookups instead of a chain
// of eight dependent ones. crcTables[0] is the classic bytewise table; the
// other seven are derived from it.
var crcTables = buildCRCTables()

func buildCRCTables() *[8][256]uint16 {
	var t [8][256]uint16
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
		t[0][i] = crc
	}
	for k := 1; k < 8; k++ {
		for i := 0; i < 256; i++ {
			prev := t[k-1][i]
			t[k][i] = prev<<8 ^ t[0][prev>>8]
		}
	}
	return &t
}

// CRC16 returns the CCITT-FALSE checksum of data.
func CRC16(data []byte) uint16 { return crcUpdate(0xFFFF, data) }

// crcUpdate runs the checksum register crc over data.
func crcUpdate(crc uint16, data []byte) uint16 {
	t := crcTables
	for len(data) >= 8 {
		// The 16-bit register only reaches the first two of the eight bytes.
		crc = t[7][data[0]^byte(crc>>8)] ^ t[6][data[1]^byte(crc)] ^
			t[5][data[2]] ^ t[4][data[3]] ^ t[3][data[4]] ^ t[2][data[5]] ^
			t[1][data[6]] ^ t[0][data[7]]
		data = data[8:]
	}
	for _, b := range data {
		crc = crc<<8 ^ t[0][byte(crc>>8)^b]
	}
	return crc
}

// The register is linear: running it from r over n bytes ends at the run
// from zero over the same bytes plus r·x^(8n), modulo the polynomial. So
// the checksum of a head followed by a body checksummed once is one
// multiplication and one exclusive or away from the head's (Shared.after).

// crcMul returns a·b modulo the CRC polynomial, over GF(2).
func crcMul(a, b uint16) uint16 {
	var p uint16
	for bit := 15; bit >= 0; bit-- {
		if p&0x8000 != 0 {
			p = p<<1 ^ crcPoly
		} else {
			p <<= 1
		}
		if b>>bit&1 != 0 {
			p ^= a
		}
	}
	return p
}

// crcShift returns x^(8n) modulo the CRC polynomial: what running the
// register over n zero bytes multiplies it by.
func crcShift(n int) uint16 {
	r, sq := uint16(1), uint16(1<<8) // x^0, x^8
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			r = crcMul(r, sq)
		}
		sq = crcMul(sq, sq)
	}
	return r
}
