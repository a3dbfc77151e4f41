package trace

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"cogrid/internal/vtime"
)

// FuzzJSONL holds the JSONL reader to two promises: no input makes it
// panic, and what it accepts, written back out, reads back to what writes
// the same bytes again — one round reaches the fixed point. And it holds
// the tracer's export to one: what a Tracer writes of the events it
// recorded is, byte for byte, what WriteJSONL writes of them sorted. The
// seeds are a committed excerpt of a brokered run's trace, line by line and
// whole, a few ways to break a line, and events that stress the exporter:
// escapes, invalid UTF-8, duplicates, ties on at, unsorted and repeated
// keys.
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
	f.Add([]byte(`{"at":3,"cat":"q\"uote","name":"back\\slash","thr":"\u0001\n\t\r\u001f","args":{"\"":"\\","k":"\u0000"}}`))
	f.Add([]byte("{\"at\":1,\"cat\":\"\xff\xfe\",\"name\":\"\xc3\",\"span\":\"req/\xe6\x97\",\"args\":{\"\xff\":\"\xc0\xaf\"}}\n"))
	f.Add([]byte(`{"at":5,"dur":2,"cat":"c","name":"n","proc":"p","args":{"a":"1"}}` + "\n" +
		`{"at":5,"dur":2,"cat":"c","name":"n","proc":"p","args":{"a":"1"}}` + "\n" +
		`{"at":5,"dur":2,"cat":"c","name":"n","proc":"p","args":{"a":"1"}}` + "\n"))
	f.Add([]byte(`{"at":7,"cat":"c","name":"z"}` + "\n" + `{"at":7,"cat":"c","name":"a","dur":1}` + "\n" +
		`{"at":7,"cat":"b","name":"a","id":"x"}` + "\n" + `{"at":2,"cat":"c","name":"a"}` + "\n"))
	f.Add([]byte(`{"at":1,"cat":"c","name":"n","args":{"b":"1","a":"2","c":"3","a":"4"}}` + "\n" +
		`{"at":1,"cat":"c","name":"n","args":{"c":"3","a":"2"}}` + "\n"))
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

		// ReadJSONL hands strings over as valid UTF-8 and args sorted and
		// unique. So give each span three raw bytes of the input, and emit
		// the args reversed, with the first key once more and another value,
		// which the encoders must drop.
		tr := New(vtime.New())
		for i := range events {
			raw := data[i%len(data):]
			events[i].Span += string(raw[:min(len(raw), 3)])
			args := slices.Clone(events[i].Args)
			slices.Reverse(args)
			if len(args) > 0 {
				args = append(args, Arg{Key: args[0].Key, Val: args[len(args)-1].Val + "!"})
			}
			events[i].Args = args
			tr.Emit(events[i])
		}
		var fromTracer, fromSorted bytes.Buffer
		if err := tr.WriteJSONL(&fromTracer); err != nil {
			t.Fatal(err)
		}
		Sort(events)
		if err := WriteJSONL(&fromSorted, events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromTracer.Bytes(), fromSorted.Bytes()) {
			t.Fatalf("Tracer.WriteJSONL wrote\n%s\nWriteJSONL of the sorted events\n%s", fromTracer.Bytes(), fromSorted.Bytes())
		}
	})
}
