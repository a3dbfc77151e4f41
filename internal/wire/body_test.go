package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	r := NewReader(buf, nil)
	for _, x := range ints {
		if got := r.Int(); int64(got) != x {
			t.Errorf("Int = %d, want %d", got, x)
		}
	}
	for _, l := range lists {
		enc := r.StringList()
		if got := enc.All(); !reflect.DeepEqual(got, l) || enc.Len() != len(l) {
			t.Errorf("StringList = %q (%d), want %q", got, enc.Len(), l)
		}
		for i, want := range l {
			if got, ok := enc.At(i); !ok || got != want {
				t.Errorf("At(%d) of %q = %q, %v", i, l, got, ok)
			}
		}
		for _, i := range []int{-1, len(l)} {
			if got, ok := enc.At(i); ok || got != "" {
				t.Errorf("At(%d) of %q = %q, %v, want nothing", i, l, got, ok)
			}
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

// TestReaderAcrossParts: a body may come in two parts, a head and the
// shared part its frame ran on into. Cut at any field boundary, it reads as
// it reads whole, each list a view of the part it lies in; cut inside a
// field, or with bytes left in either part, it is malformed.
func TestReaderAcrossParts(t *testing.T) {
	var body []byte
	cuts := []int{0}
	for _, field := range []func([]byte) []byte{
		func(b []byte) []byte { return AppendVarint(b, -1) },
		func(b []byte) []byte { return AppendString(b, "reason") },
		func(b []byte) []byte { return AppendVarint(b, 300) },
		func(b []byte) []byte { return AppendStrings(b, []string{"m1:app.0", "m2:app.1"}) },
		func(b []byte) []byte { return AppendString(b, "tail") },
	} {
		body = field(body)
		cuts = append(cuts, len(body))
	}
	read := func(head, shared []byte) (int, string, int, StringList, string, error) {
		r := NewReader(head, shared)
		a, s, b, l, tail := r.Int(), r.String(), r.Int(), r.StringList(), r.String()
		return a, s, b, l, tail, r.Done()
	}
	for cut := 0; cut <= len(body); cut++ {
		head, shared := body[:cut:cut], body[cut:]
		a, s, b, l, tail, err := read(head, shared)
		if !slices.Contains(cuts, cut) {
			if err == nil && cut != 0 {
				t.Errorf("cut inside a field at %d: read %d %q %d %q %q", cut, a, s, b, l.All(), tail)
			}
			continue
		}
		if err != nil || a != -1 || s != "reason" || b != 300 || !reflect.DeepEqual(l.All(), []string{"m1:app.0", "m2:app.1"}) || tail != "tail" {
			t.Errorf("cut at %d: %v, read %d %q %d %q %q", cut, err, a, s, b, l.All(), tail)
		}
		if list := []byte(l); cut <= cuts[3] && !inside(shared, list) || cut > cuts[3] && !inside(head, list) {
			t.Errorf("cut at %d: the list is not a view of the part it lies in", cut)
		}
	}
	if _, _, _, _, _, err := read(body, []byte{0}); err == nil {
		t.Error("a byte left in the shared part read as nothing")
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	good := AppendStrings(AppendString(nil, "reason"), []string{"a", "bc"})
	for n := 0; n < len(good); n++ {
		r := NewReader(good[:n], nil)
		if _, list := r.String(), r.StringList(); list != nil || r.Done() != ErrFrame {
			t.Errorf("truncation to %d of %d bytes accepted", n, len(good))
		}
	}
	r := NewReader(append(append([]byte(nil), good...), 0), nil)
	_, _ = r.String(), r.StringList()
	if r.Done() != ErrFrame {
		t.Error("trailing byte accepted")
	}
	// A count that the remaining bytes cannot hold fails at the count: a
	// hostile 2³⁰ is not walked, and a list cut from it by hand decodes to
	// nothing instead of sizing a 16 GB slice.
	huge := append(binary.AppendUvarint(nil, 1<<30), make([]byte, 64)...)
	r = NewReader(huge, nil)
	if r.StringList() != nil || r.Done() != ErrFrame {
		t.Error("over-long count accepted")
	}
	if l := StringList(huge); l.Len() != 0 || l.All() != nil {
		t.Error("over-long count produced a list")
	}
	// A length that overruns inside the list: the second string claims nine
	// bytes of the three that remain.
	overrun := StringList{2, 1, 'a', 9, 'b', 'c', 'd'}
	rr := NewReader(overrun, nil)
	if rr.StringList() != nil || rr.Done() != ErrFrame {
		t.Error("overrunning length accepted")
	}
	if s, ok := overrun.At(1); ok || s != "" {
		t.Errorf("At past an overrunning length = %q, %v", s, ok)
	}
	// A length that is no varint: eleven bytes long, so binary.Uvarint
	// reports it as a negative count.
	overlong := StringList(append([]byte{2, 1, 'a'}, append(bytes.Repeat([]byte{0x80}, 10), 1)...))
	if s, ok := overlong.At(1); ok || s != "" {
		t.Errorf("At past an overlong length = %q, %v", s, ok)
	}
	if s, ok := overrun.At(0); !ok || s != "a" || !reflect.DeepEqual(overrun.All(), []string{"a"}) {
		t.Errorf("a malformed list is read as far as it is well formed: At(0) = %q, %v, All = %q", s, ok, overrun.All())
	}
	// Once failed, a Reader stays failed and returns zero values.
	if r.Int() != 0 || r.String() != "" || r.Uvarint() != 0 || r.Done() != ErrFrame {
		t.Error("reads after a failure returned data")
	}
}

// TestReaderStringsShareOneCopy pins the allocation shape of a list: walking
// it costs nothing, one string of it costs that string, and all n cost the
// slice, their strings being views of the body.
func TestReaderStringsShareOneCopy(t *testing.T) {
	book := make([]string, 64)
	for i := range book {
		book[i] = "machine07:app.coalloc12.site3.5"
	}
	body := AppendStrings(nil, book)
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(body, nil)
		if len(r.StringList().All()) != len(book) || r.Done() != nil {
			t.Fatal("parse failed")
		}
	}); allocs > 1 {
		t.Errorf("64 strings cost %v allocations, want at most 1", allocs)
	}
	var list StringList
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(body, nil)
		if list = r.StringList(); list.Len() != len(book) || r.Done() != nil {
			t.Fatal("walk failed")
		}
	}); allocs != 0 {
		t.Errorf("walking 64 strings cost %v allocations, want none", allocs)
	}
	if &list[0] != &body[0] {
		t.Error("the list is a copy of the body, not a sub-slice of it")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if s, ok := list.At(63); !ok || s != book[63] {
			t.Fatal("At(63) failed")
		}
	}); allocs > 1 {
		t.Errorf("one string of 64 cost %v allocations, want at most 1", allocs)
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
