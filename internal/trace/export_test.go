package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

func exportFixtureEvents() []Event {
	return []Event{
		{At: 0, Cat: "transport", Name: "hop", Proc: "m1", Thr: "m1->m2", ID: "f1",
			Dur: 2 * time.Millisecond,
			Args: []Arg{{Key: "to", Val: "m2:gram"}, {Key: "bytes", Val: "120"},
				{Key: "outcome", Val: "ok"}}},
		{At: 5 * time.Millisecond, Cat: "rpc", Name: "call:submit", Proc: "workstation",
			Req: "req-1", Span: "/call"},
		{At: 6 * time.Millisecond, Cat: "x", Name: `quote"back\slash`, Proc: "p",
			Args: []Arg{{Key: "v", Val: "line1\nline2\ttab\x01ctl"}}},
		{At: 7 * time.Millisecond, Cat: "flow", Name: "dial", Proc: "a",
			Thr: "a:client=>b:gram@7000"},
	}
}

func TestAppendJSONLMatchesEncodingJSON(t *testing.T) {
	// Every line the append encoder emits must decode into exactly the
	// jsonlEvent that encoding/json would produce for the same event —
	// proving escaping and omitempty semantics agree.
	events := exportFixtureEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("got %d lines, want %d", len(lines), len(events))
	}
	for i, line := range lines {
		var got jsonlEvent
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i, err, line)
		}
		want := jsonlEvent{
			At: int64(events[i].At), Dur: int64(events[i].Dur),
			Cat: events[i].Cat, Name: events[i].Name, Proc: events[i].Proc,
			Thr: events[i].Thr, ID: events[i].ID, Req: events[i].Req,
			Span: events[i].Span, Args: argMap(events[i].Args),
		}
		raw, _ := json.Marshal(want)
		var norm jsonlEvent
		_ = json.Unmarshal(raw, &norm)
		if got.At != norm.At || got.Dur != norm.Dur || got.Cat != norm.Cat ||
			got.Name != norm.Name || got.Proc != norm.Proc || got.Thr != norm.Thr ||
			got.ID != norm.ID || got.Req != norm.Req || got.Span != norm.Span {
			t.Fatalf("line %d decodes to %+v, want %+v", i, got, norm)
		}
		if len(got.Args) != len(norm.Args) {
			t.Fatalf("line %d args %v, want %v", i, got.Args, norm.Args)
		}
		for k, v := range norm.Args {
			if got.Args[k] != v {
				t.Fatalf("line %d arg %q = %q, want %q", i, k, got.Args[k], v)
			}
		}
	}
}

func TestWriteJSONLPooledRoundTrip(t *testing.T) {
	events := exportFixtureEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(back), len(events))
	}
	for i := range back {
		if back[i].At != events[i].At || back[i].Name != events[i].Name ||
			back[i].Cat != events[i].Cat || back[i].Thr != events[i].Thr {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, back[i], events[i])
		}
	}
	// Args come back sorted by key (ReadJSONL contract).
	if got := back[0].Args; len(got) != 3 || got[0].Key != "bytes" || got[2].Key != "to" {
		t.Fatalf("args not sorted on read: %v", got)
	}
}

func TestWriteJSONLAllocsAmortized(t *testing.T) {
	// Encoding must not allocate per event: each call allocates one buffer
	// and appends in place. Allow a fraction of an alloc per event.
	events := make([]Event, 500)
	for i := range events {
		events[i] = Event{
			At: time.Duration(i) * time.Millisecond, Cat: "transport", Name: "hop",
			Proc: "m1", Thr: "m1->m2", Dur: time.Millisecond,
			Args: []Arg{{Key: "bytes", Val: "120"}, {Key: "to", Val: "m2:gram"}},
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		_ = WriteJSONL(io.Discard, events)
	})
	perEvent := allocs / float64(len(events))
	if perEvent > 0.02 {
		t.Fatalf("JSONL export allocates %.3f per event, want ~0", perEvent)
	}
}

func BenchmarkWriteJSONL(b *testing.B) {
	// One op = one event encoded and written, from a pre-built trace.
	events := make([]Event, 512)
	for i := range events {
		events[i] = Event{
			At: time.Duration(i) * time.Millisecond, Cat: "rpc", Name: "call:submit",
			Proc: "workstation", Thr: "client", ID: "flow#1", Req: "req-1", Span: "/call",
			Dur:  2 * time.Millisecond,
			Args: []Arg{{Key: "outcome", Val: "ok"}},
		}
	}
	_ = WriteJSONL(io.Discard, events) // warm pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events) : i%len(events)+1]
		if err := WriteJSONL(io.Discard, ev); err != nil {
			b.Fatal(err)
		}
	}
}
