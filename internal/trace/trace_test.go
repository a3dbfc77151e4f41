package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cogrid/internal/metrics"
	"cogrid/internal/vtime"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer Enabled() = true")
	}
	if tr.Now() != 0 {
		t.Error("nil tracer Now() != 0")
	}
	// None of these may panic.
	tr.Emit(Event{Name: "x"})
	tr.Instant("c", "n", "p", "t", "")
	tr.Span("c", "n", "p", "t", "", 0)
	tr.SpanAt("c", "n", "p", "t", "", 0, time.Second)
	if tr.Len() != 0 {
		t.Error("nil tracer Len() != 0")
	}
	if tr.Events() != nil {
		t.Error("nil tracer Events() != nil")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteChromeTrace: %v", err)
	}
}

func TestNilCountersAreNoOp(t *testing.T) {
	var cs *Counters
	cs.Add("x", 1)
	cs.AddKey("rpc", "call", "ok", "m1", 1)
	if cs.C("x") != nil {
		t.Error("nil Counters.C != nil")
	}
	if cs.Get("x") != 0 {
		t.Error("nil Counters.Get != 0")
	}
	if cs.Snapshot() != nil {
		t.Error("nil Counters.Snapshot != nil")
	}
	var c *Counter
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil Counter.Load != 0")
	}
}

func TestSpanAtClampsNegativeDuration(t *testing.T) {
	sim := vtime.New()
	tr := New(sim)
	tr.SpanAt("c", "n", "p", "t", "", 2*time.Second, time.Second)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Dur != 0 {
		t.Fatalf("events = %+v, want one zero-duration span", evs)
	}
}

// Events appended in any real-time order sort to one deterministic order.
func TestSortIsTotalAndDeterministic(t *testing.T) {
	mk := func() []Event {
		return []Event{
			{At: 2, Cat: "b", Name: "x", Proc: "p1"},
			{At: 1, Cat: "a", Name: "y", Proc: "p2", Thr: "t"},
			{At: 1, Cat: "a", Name: "y", Proc: "p1"},
			{At: 1, Cat: "a", Name: "x", Proc: "p1", Args: []Arg{{"k", "v"}}},
			{At: 1, Cat: "a", Name: "x", Proc: "p1", Args: []Arg{{"k", "u"}}},
			{At: 1, Cat: "a", Name: "x", Proc: "p1"},
		}
	}
	fwd := mk()
	Sort(fwd)
	rev := mk()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	Sort(rev)
	for i := range fwd {
		a, b := fwd[i], rev[i]
		if a.At != b.At || a.Name != b.Name || a.Proc != b.Proc || len(a.Args) != len(b.Args) {
			t.Fatalf("order diverges at %d: %+v vs %+v", i, a, b)
		}
	}
	for i := 1; i < len(fwd); i++ {
		if Less(fwd[i], fwd[i-1]) {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

// The event store is chunked; a trace spanning several chunks, emitted out
// of order and with equal events in it, exports exactly what a stable sort
// of the emission sequence gives, by every route out of the tracer.
func TestChunkedStoreExportsInSortOrder(t *testing.T) {
	tr := New(vtime.New())
	var flat []Event
	for i := 0; i < 3*chunkSize+17; i++ {
		ev := Event{At: time.Duration((i * 7919) % 101), Cat: "c", Name: "n", Proc: "p", Thr: "t"}
		if i%3 == 0 {
			ev.ID = itoa(i) // two thirds of the events tie with others at their instant
		}
		tr.Emit(ev)
		flat = append(flat, ev)
	}
	if tr.Len() != len(flat) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(flat))
	}
	sort.SliceStable(flat, func(i, j int) bool { return Less(flat[i], flat[j]) })
	got := tr.Events()
	if len(got) != len(flat) {
		t.Fatalf("Events returned %d events, want %d", len(got), len(flat))
	}
	for i := range flat {
		if got[i].At != flat[i].At || got[i].ID != flat[i].ID {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], flat[i])
		}
	}
	got[0].Name = "mutated" // Events is a copy
	if tr.Events()[0].Name != "n" {
		t.Fatal("Events aliases the tracer's store")
	}
	var direct, viaEvents bytes.Buffer
	if err := tr.WriteJSONL(&direct); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&viaEvents, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaEvents.Bytes()) {
		t.Fatal("Tracer.WriteJSONL differs from WriteJSONL(Events())")
	}
	shuffled := tr.Events()
	for i, j := 0, len(shuffled)-1; i < j; i, j = i+1, j-1 {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	Sort(shuffled)
	for i := 1; i < len(shuffled); i++ {
		if Less(shuffled[i], shuffled[i-1]) {
			t.Fatalf("Sort left events %d and %d out of order", i-1, i)
		}
	}
}

func TestCountersConcurrent(t *testing.T) {
	cs := NewCounters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := cs.C("shared")
			for i := 0; i < 1000; i++ {
				h.Add(1)
				cs.Add("registry", 1)
				cs.AddKey("rpc", "call", "ok", "m1", 1)
			}
		}()
	}
	wg.Wait()
	if got := cs.Get("rpc.call.ok@m1"); got != 8000 {
		t.Errorf("rpc.call.ok@m1 = %d, want 8000", got)
	}
	if got := cs.Get("shared"); got != 8000 {
		t.Errorf("shared = %d, want 8000", got)
	}
	if got := cs.Get("registry"); got != 8000 {
		t.Errorf("registry = %d, want 8000", got)
	}
}

func TestKeyConvention(t *testing.T) {
	if got := Key("transport", "msgs", "send", "m1"); got != "transport.msgs.send@m1" {
		t.Errorf("Key = %q", got)
	}
	if got := Key("rpc", "call", "ok", ""); got != "rpc.call.ok" {
		t.Errorf("Key without scope = %q", got)
	}
}

// TestAddKeyIsAddOfKey: the two spellings feed one counter, the counter
// appears with its first count and not before, and counting through the
// parts builds no name once the counter exists.
func TestAddKeyIsAddOfKey(t *testing.T) {
	cs := NewCounters()
	if len(cs.Snapshot()) != 0 {
		t.Fatal("fresh registry is not empty")
	}
	cs.AddKey("rpc", "call", "ok", "m1", 2)
	cs.Add(Key("rpc", "call", "ok", "m1"), 3)
	cs.AddKey("rpc", "call", "ok", "", 1)
	want := []CounterValue{{Name: "rpc.call.ok", Value: 1}, {Name: "rpc.call.ok@m1", Value: 5}}
	if got := cs.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot = %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { cs.AddKey("rpc", "call", "ok", "m1", 1) }); allocs != 0 {
		t.Errorf("AddKey on an existing counter allocated %v times", allocs)
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	sim := vtime.New()
	tr := New(sim)
	tr.Instant("cat", "inst", "proc", "thr", "id1", Arg{"k", "v"})
	tr.SpanAt("cat", "span", "proc", "thr", "id2", 0, 3*time.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if m["cat"] != "cat" {
			t.Errorf("cat = %v", m["cat"])
		}
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	sim := vtime.New()
	tr := New(sim)
	tr.SpanAt("rpc", "call:x", "hostA", "flow1", "c1", time.Millisecond, 3*time.Millisecond)
	tr.Instant("transport", "recv", "hostB", "flow2", "")
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	byPh := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byPh[ev.Ph]++
		if ev.Ph != "M" && ev.Pid == 0 {
			t.Errorf("event %q has pid 0", ev.Name)
		}
	}
	// 2 process_name + 2 thread_name metadata, one span, one instant.
	if byPh["M"] != 4 || byPh["X"] != 1 || byPh["i"] != 1 {
		t.Errorf("phase counts = %v, want M:4 X:1 i:1", byPh)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			if ev.Ts != 1000 || ev.Dur != 2000 {
				t.Errorf("span ts/dur = %v/%v µs, want 1000/2000", ev.Ts, ev.Dur)
			}
		}
	}
}

// The exported byte streams are identical however the events were appended.
func TestExportByteDeterminism(t *testing.T) {
	build := func(reverse bool) *Tracer {
		sim := vtime.New()
		tr := New(sim)
		evs := []Event{
			{At: time.Millisecond, Cat: "a", Name: "one", Proc: "p1", Thr: "t1"},
			{At: time.Millisecond, Cat: "a", Name: "two", Proc: "p2", Thr: "t2", Dur: time.Millisecond},
			{At: 2 * time.Millisecond, Cat: "b", Name: "three", Proc: "p1", Thr: "t1", Args: []Arg{{"k", "v"}}},
		}
		if reverse {
			for i, j := 0, len(evs)-1; i < j; i, j = i+1, j-1 {
				evs[i], evs[j] = evs[j], evs[i]
			}
		}
		for _, ev := range evs {
			tr.Emit(ev)
		}
		return tr
	}
	var a, b, ca, cb bytes.Buffer
	build(false).WriteJSONL(&a)
	build(true).WriteJSONL(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSONL export depends on append order")
	}
	build(false).WriteChromeTrace(&ca)
	build(true).WriteChromeTrace(&cb)
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Error("Chrome export depends on append order")
	}
}

// DeriveTimeline projects the events its pick accepts, and only those, into
// a metrics.Timeline: the actor is the thread track, or the process track
// where there is none. IsPhase goes by category and name: a phase of no
// length is one, the job-level commit span and an instant are not.
func TestDeriveTimeline(t *testing.T) {
	sim := vtime.New()
	tr := New(sim)
	tr.SpanAt("gram", "authentication", "origin", "gram", "", 0, 500*time.Millisecond)
	tr.SpanAt("duroc", "submit", "workstation", "sj1", "", 500*time.Millisecond, 700*time.Millisecond)
	tr.SpanAt("duroc", "barrier", "workstation", "", "", 700*time.Millisecond, 700*time.Millisecond)
	tr.SpanAt("duroc", "commit", "workstation", "job1", "", 0, 700*time.Millisecond)
	tr.Instant("duroc", "barrier-enter", "workstation", "sj1", "")
	spans := DeriveTimeline(sim, tr.Events(), IsPhase).Spans()
	want := []metrics.Span{
		{Actor: "gram", Phase: "authentication", Start: 0, End: 500 * time.Millisecond},
		{Actor: "sj1", Phase: "submit", Start: 500 * time.Millisecond, End: 700 * time.Millisecond},
		{Actor: "workstation", Phase: "barrier", Start: 700 * time.Millisecond, End: 700 * time.Millisecond},
	}
	if !slices.Equal(spans, want) {
		t.Errorf("derived spans = %+v, want %+v", spans, want)
	}
	instants := func(ev Event) bool { return ev.Name == "barrier-enter" }
	if got := DeriveTimeline(sim, tr.Events(), instants).Spans(); len(got) != 1 || got[0].Actor != "sj1" {
		t.Errorf("a pick of its own projected %+v, want the one instant", got)
	}
}
