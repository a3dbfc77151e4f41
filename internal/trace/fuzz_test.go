package trace

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// FuzzJSONL holds the JSONL reader to two promises: no input makes it
// panic, and what it accepts, written back out, reads back to what writes
// the same bytes again — one round reaches the fixed point. The seeds are
// a committed excerpt of a brokered run's trace, line by line and whole,
// and a few ways to break a line.
func FuzzJSONL(f *testing.F) {
	excerpt, err := os.ReadFile("testdata/excerpt.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(excerpt)
	for _, line := range strings.SplitAfter(string(excerpt), "\n") {
		f.Add([]byte(line))
	}
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"at":1,"at":2,"cat":"c","name":"n"}`))
	f.Add([]byte(`{"at":1.5,"cat":"c","name":"n"}`))
	f.Add([]byte(`{"at":0,"cat":"\u0000\ud800","name":"\xff","args":{"k":null,"\xfe":"v","\xff":"w"}}`))
	f.Add([]byte(`{"at":0,"cat":"c","name":"n"` + "\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteJSONL(&once, events); err != nil {
			t.Fatal(err)
		}
		again, err := ReadJSONL(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("what WriteJSONL wrote does not read back: %v\n%s", err, once.Bytes())
		}
		if err := WriteJSONL(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("no fixed point after one round:\n%s\nthen\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
