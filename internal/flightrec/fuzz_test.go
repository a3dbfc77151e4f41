package flightrec

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadDump holds the dump reader to the writer: no input makes it
// panic, and a dump it accepts writes out as bytes that read back to a dump
// writing the very same bytes. The seeds wrap the trace package's committed
// excerpt in dump headers — whole, cut short, with a count that lies — and
// add a few broken headers.
func FuzzReadDump(f *testing.F) {
	excerpt, err := os.ReadFile("../trace/testdata/excerpt.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(excerpt), "\n"), "\n")
	header := func(events int) string {
		return `{"flightrec":"v1","trigger":"slo:broker-drop-storm","detail":"broker0 b#1","at_ns":10007000000,"events":` +
			strconv.Itoa(events) + "}\n"
	}
	f.Add([]byte(header(len(lines)) + string(excerpt)))
	f.Add([]byte(header(3) + strings.Join(lines[:3], "")))
	f.Add([]byte(header(2) + strings.Join(lines[:3], "")))
	f.Add([]byte(header(0)))
	f.Add([]byte(`{"flightrec":"v1","trigger":"","detail":"","at_ns":0,"events":0}`))
	f.Add([]byte(`{"flightrec":"v2","events":0}` + "\n"))
	f.Add([]byte("\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteDump(&once, d); err != nil {
			t.Fatal(err)
		}
		again, err := ReadDump(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("what WriteDump wrote does not read back: %v\n%s", err, once.Bytes())
		}
		if err := WriteDump(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("the round trip is not byte-identical:\n%s\nthen\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
