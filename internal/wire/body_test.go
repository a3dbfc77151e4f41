package wire

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// crc16Bytewise is the one-table reference the sliced CRC16 must equal.
func crc16Bytewise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crcTables[0][byte(crc>>8)^b]
	}
	return crc
}

func TestCRC16SlicedEqualsBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 300)
	rng.Read(data)
	// Every length crosses every tail size, and every start offset every
	// alignment of the eight-byte stride.
	for n := 0; n <= len(data); n++ {
		for off := 0; off < 8 && off+n <= len(data); off++ {
			if got, want := CRC16(data[off:off+n]), crc16Bytewise(data[off:off+n]); got != want {
				t.Fatalf("CRC16(len %d at +%d) = %#04x, bytewise %#04x", n, off, got, want)
			}
		}
	}
}

func TestBodyPrimitivesRoundTrip(t *testing.T) {
	ints := []int64{0, 1, -1, 63, -64, 64, -65, 1 << 40, math.MaxInt64, math.MinInt64}
	lists := [][]string{nil, {""}, {"a"}, {"m1:app.0", "", "m2:app.1"}}
	var buf []byte
	for _, x := range ints {
		buf = AppendVarint(buf, x)
	}
	for _, l := range lists {
		buf = AppendStrings(buf, l)
	}
	buf = AppendString(buf, "tail")
	r := NewReader(buf)
	for _, x := range ints {
		if got := r.Int(); int64(got) != x {
			t.Errorf("Int = %d, want %d", got, x)
		}
	}
	for _, l := range lists {
		if got := r.Strings(); !reflect.DeepEqual(got, l) {
			t.Errorf("Strings = %q, want %q", got, l)
		}
	}
	if got := r.String(); got != "tail" {
		t.Errorf("String = %q, want tail", got)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v after reading everything", err)
	}
	if got := AppendVarint(nil, -1); len(got) != 1 {
		t.Errorf("-1 takes %d bytes, want 1", len(got))
	}
	if BodyMarker < 0x80 {
		t.Errorf("BodyMarker %#x could start a JSON value", BodyMarker)
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	good := AppendStrings(AppendString(nil, "reason"), []string{"a", "bc"})
	for n := 0; n < len(good); n++ {
		r := NewReader(good[:n])
		_, _ = r.String(), r.Strings()
		if r.Done() != ErrFrame {
			t.Errorf("truncation to %d of %d bytes accepted", n, len(good))
		}
	}
	r := NewReader(append(append([]byte(nil), good...), 0))
	_, _ = r.String(), r.Strings()
	if r.Done() != ErrFrame {
		t.Error("trailing byte accepted")
	}
	// A count that the remaining bytes cannot hold must fail before the
	// list is allocated: a hostile 2³⁰ would otherwise cost 16 GB.
	huge := AppendUvarint(nil, 1<<30)
	r = NewReader(append(huge, make([]byte, 64)...))
	if allocs := testing.AllocsPerRun(10, func() {
		rr := r
		if rr.Strings() != nil {
			t.Error("over-long count produced a list")
		}
	}); allocs != 0 {
		t.Errorf("over-long count allocated %v times before failing", allocs)
	}
	r.Strings()
	if r.Done() != ErrFrame {
		t.Error("over-long count accepted")
	}
	// Once failed, a Reader stays failed and returns zero values.
	if r.Int() != 0 || r.String() != "" || r.Uvarint() != 0 || r.Done() != ErrFrame {
		t.Error("reads after a failure returned data")
	}
}

// TestReaderStringsShareOneCopy pins the allocation shape ParseWire
// implementations rely on: n strings cost one string and one slice.
func TestReaderStringsShareOneCopy(t *testing.T) {
	book := make([]string, 64)
	for i := range book {
		book[i] = "machine07:app.coalloc12.site3.5"
	}
	body := AppendStrings(nil, book)
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(body)
		if len(r.Strings()) != len(book) || r.Done() != nil {
			t.Fatal("parse failed")
		}
	}); allocs > 2 {
		t.Errorf("64 strings cost %v allocations, want at most 2", allocs)
	}
}

func BenchmarkCRC16(b *testing.B) {
	data := make([]byte, 2560) // one check-in reply frame of a 64-process job
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink ^= CRC16(data)
	}
	crcSink = sink
}

var crcSink uint16
