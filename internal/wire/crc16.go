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
func CRC16(data []byte) uint16 {
	t := crcTables
	crc := uint16(0xFFFF)
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

// checkCRC verifies a frame's trailing checksum and returns the frame body
// without it.
func checkCRC(frame []byte) (body []byte, ok bool) {
	if len(frame) < 2 {
		return nil, false
	}
	body = frame[:len(frame)-2]
	want := uint16(frame[len(frame)-2])<<8 | uint16(frame[len(frame)-1])
	return body, CRC16(body) == want
}
