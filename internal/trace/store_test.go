package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cogrid/internal/vtime"
)

// The stored record and the argument storage hold nothing the collector
// would have to follow: no string, slice, map, pointer or interface, at any
// depth. A field that needs one belongs in the string table.
func TestStoreHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	for _, v := range []any{[chunkSize]record{}, [argChunkSize]argRef{}} {
		walk(reflect.TypeOf(v).String(), reflect.TypeOf(v))
	}
	if got := unsafe.Sizeof(record{}); got > 56 {
		t.Errorf("a stored event is %d bytes, want at most 56", got)
	}
}

// The table holds a string once: through several growths of its index and
// past the front cache, an equal string from another allocation gets the
// id the first one got, and the id resolves to it. Among 300 000 strings
// of one length about ten pairs share a 32-bit hash, so the string compare
// behind the hash compare is exercised too.
func TestInternOnce(t *testing.T) {
	var tab strtab
	const n = 300_000
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = tab.intern(fmt.Sprintf("s%06d", i))
	}
	if tab.n != n+1 {
		t.Fatalf("%d distinct strings took %d ids", n, tab.n-1)
	}
	for i, id := range ids {
		s := fmt.Sprintf("s%06d", i)
		if got := tab.intern(s); got != id || tab.str(id) != s {
			t.Fatalf("%q interned again as %d (%q), first as %d", s, got, tab.str(got), id)
		}
	}
	if tab.intern("") != 0 {
		t.Error(`"" is not id 0`)
	}
}

// The table keeps a copy of what it first sees: a string a caller passes
// may be a view of a large buffer, a received frame, which the table must
// not keep alive for the rest of the run. A tap that keeps the event (the
// flight recorder) is handed the table's strings, not the caller's.
func TestInternCopiesFirstSight(t *testing.T) {
	buf := strings.Repeat("x", 64<<10) + "hop-to-m7"
	s := buf[64<<10:]
	lo := uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	outside := func(kept string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(kept)))
		return kept == s && (p < lo || p >= lo+uintptr(len(buf)))
	}
	var tab strtab
	if stored := tab.str(tab.intern(s)); !outside(stored) {
		t.Errorf("interning a substring of a %d-byte buffer stored %q inside that buffer", len(buf), stored)
	}
	tr := New(vtime.New())
	tap := &keepingTap{}
	tr.SetTap(tap)
	tr.InstantCtx(Ctx{Req: "r", Span: s}, "c", "n", "p", "t", "")
	if kept := tap.seen[0].Span; !outside(kept) {
		t.Errorf("a tap kept %q inside the %d-byte buffer the emitter's span path was cut from", kept, len(buf))
	}
}

// randomEvents draws n events meant to find where the store and its
// readers part from a plain slice: empty fields, duplicate arg keys,
// control and non-ASCII bytes, many events per instant, emission out of
// time order, and equal strings from distinct allocations.
func randomEvents(rng *rand.Rand, n int) []Event {
	pool := []string{"", "a", "b", "ab", "hop", "req", "req/x", "req/x/y", "\x01", "line\nbreak",
		`q"uote`, `back\slash`, "é", "日本", "\xff\xfe", "tab\t", "m1:client->m2:svc@1000"}
	pick := func() string {
		// Mostly one of the first two, so that events often tie on every
		// field the comparator looks at before the last ones.
		s := pool[rng.Intn(2)]
		if rng.Intn(4) == 0 {
			s = pool[rng.Intn(len(pool))]
		}
		if rng.Intn(2) == 0 {
			return strings.Clone(s) // the same string from another allocation
		}
		return s
	}
	events := make([]Event, n)
	for i := range events {
		ev := Event{
			At:  time.Duration(rng.Intn(8)),
			Cat: pick(), Name: pick(), Proc: pick(), Thr: pick(), ID: pick(), Req: pick(), Span: pick(),
		}
		if rng.Intn(3) == 0 {
			ev.Dur = time.Duration(rng.Intn(5))
		}
		for k := rng.Intn(4); k > 0; k-- {
			key := pick()
			if len(ev.Args) > 0 && rng.Intn(4) == 0 {
				key = ev.Args[0].Key
			}
			ev.Args = append(ev.Args, Arg{Key: key, Val: pick()})
		}
		events[i] = ev
	}
	return events
}

// Every way out of the store gives what the same events give as a plain
// slice put in order by Sort: Events(), Tracer.WriteJSONL, Analyze — and
// the tap sees each event as emitted. Events read mid-way, one past the
// first chunk, are the events emitted so far, and stay so while the store
// grows.
func TestStoreEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		emitted := randomEvents(rng, 2*chunkSize+rng.Intn(chunkSize))
		tr := New(vtime.New())
		tap := &keepingTap{}
		tr.SetTap(tap)
		var mid []Event
		for i, ev := range emitted {
			if i%2 == 0 {
				tr.Emit(ev)
			} else {
				tr.SpanAtCtx(Ctx{Req: ev.Req, Span: ev.Span}, ev.Cat, ev.Name, ev.Proc, ev.Thr, ev.ID, ev.At, ev.At+ev.Dur, ev.Args...)
			}
			if i == chunkSize {
				mid = tr.Events()
			}
		}
		wantMid := slices.Clone(emitted[:chunkSize+1])
		Sort(wantMid)
		if !reflect.DeepEqual(mid, wantMid) {
			t.Fatalf("seed %d: Events() after %d emits is not those events in order", seed, chunkSize+1)
		}
		if !reflect.DeepEqual(tap.seen, emitted) {
			t.Fatalf("seed %d: the tap saw other events than were emitted", seed)
		}
		want := slices.Clone(emitted)
		Sort(want)
		got := tr.Events()
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d: Events()[%d] = %+v, want %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: Events() differs from Sort over the emitted events", seed)
		}
		var direct, plain bytes.Buffer
		if err := tr.WriteJSONL(&direct); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&plain, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.Bytes(), plain.Bytes()) {
			t.Fatalf("seed %d: Tracer.WriteJSONL differs from WriteJSONL of the sorted events", seed)
		}
		if a, b := Analyze(got), Analyze(emitted); !reflect.DeepEqual(a, b) || a.Report() != Analyze(want).Report() {
			t.Fatalf("seed %d: Analyze depends on where its events came from", seed)
		}
	}
}

// What Events() returns is the caller's: changing an event's args changes
// neither a later Events() nor the JSONL export, and a later call does not
// rewrite what an earlier one returned.
func TestEventsArgsAreTheCallers(t *testing.T) {
	tr := New(vtime.New())
	for i := 0; i < 3; i++ {
		tr.Instant("c", "n", "p", "t", itoa(i), Arg{Key: "k", Val: "v" + itoa(i)}, Arg{Key: "k2", Val: "w"})
	}
	var before bytes.Buffer
	if err := tr.WriteJSONL(&before); err != nil {
		t.Fatal(err)
	}
	got := tr.Events()
	got[0].Args[0] = Arg{Key: "k", Val: "mutated"}
	got[1].Args[1].Val = "mutated"
	_ = append(got[2].Args[:1], Arg{Key: "x", Val: "y"})
	if again := tr.Events(); again[0].Args[0].Val != "v0" || again[1].Args[1].Val != "w" || again[2].Args[1].Key != "k2" {
		t.Errorf("mutating returned args changed a later Events(): %v", again)
	}
	if got[0].Args[0].Val != "mutated" || got[1].Args[1].Val != "mutated" {
		t.Errorf("a later Events() rewrote the args an earlier one returned: %v", got)
	}
	var after bytes.Buffer
	if err := tr.WriteJSONL(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("mutating returned args changed the export:\n%s\nwas\n%s", after.Bytes(), before.Bytes())
	}
}

// bytesPer is the number of bytes fn allocates, measured on one P.
func bytesPer(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sortByCopy is Sort as it was: the same permutation applied by building a
// sorted copy.
func sortByCopy(events []Event) {
	order := exportOrder(len(events), func(i, j uint32) int { return compare(&events[i], &events[j]) })
	sorted := make([]Event, len(events))
	for i, j := range order {
		sorted[i] = events[j]
	}
	copy(events, sorted)
}

// Sort follows the permutation's cycles in place: it orders events as the
// copying sort did and allocates nothing but the permutation.
func TestSortInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	events := randomEvents(rng, 3*chunkSize+5)
	want := slices.Clone(events)
	sortByCopy(want)
	got := slices.Clone(events)
	// The order is one allocation, rounded up to its size class (≤ 12.5 %).
	if n := bytesPer(func() { Sort(got) }); n > 4*uint64(len(events))*9/8 {
		t.Errorf("Sort allocated %d bytes for %d events, want only the 4-byte-per-event order", n, len(events))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Sort in place differs from the sorted copy")
	}
	Sort(got) // sorted input: every position a fixed point
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Sort moved an already sorted trace")
	}
}

// Analyze visits its input through a permutation: the input is left as it
// was, and the whole analysis allocates less than one copy of the events.
func TestAnalyzeCopiesNothing(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var events []Event
	for r := 0; r < 100; r++ {
		req := fmt.Sprintf("r%d", r)
		at := ms(1000 * r)
		events = append(events, Event{At: at, Dur: ms(90), Cat: "client", Name: "request", Req: req, Span: "req"})
		for s := 0; s < 4; s++ {
			span := fmt.Sprintf("req/call:submit#%d", s)
			events = append(events, Event{At: at + ms(20*s), Dur: ms(20), Cat: "rpc", Name: "call:submit", Req: req, Span: span})
			for h := 0; h < 20; h++ {
				events = append(events, Event{At: at + ms(20*s+h), Dur: ms(1), Cat: "transport", Name: "hop",
					Proc: "m1", Thr: "m1->m2", Req: req, Span: span + "/hop", Args: []Arg{{Key: "bytes", Val: "70"}}})
				events = append(events, Event{At: at + ms(20*s+h+1), Cat: "transport", Name: "recv", Req: req, Span: span})
			}
		}
	}
	rand.New(rand.NewSource(3)).Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	input := slices.Clone(events)
	var a *Analysis
	n := bytesPer(func() { a = Analyze(events) })
	if !reflect.DeepEqual(events, input) {
		t.Fatal("Analyze modified its input")
	}
	if limit := uint64(len(events)) * uint64(unsafe.Sizeof(Event{})); n >= limit {
		t.Errorf("Analyze of %d events allocated %d bytes, want fewer than a copy of them (%d)", len(events), n, limit)
	}
	if p := a.Check(); len(p) != 0 || len(a.RequestTrees()) != 100 {
		t.Fatalf("analysis of the synthetic trace: %d request trees, problems %v", len(a.RequestTrees()), p)
	}
}

// Concat and Itoa build what + and strconv.Itoa build, with a tracer or
// without one; Child builds the parent's path, "/" and the parts with one,
// and without one derives nothing: the zero Ctx, whatever the parent. With a
// tracer, the result is the string table's copy: a string seen before costs
// no allocation and comes back at the same address, and one seen first is
// copied, so it keeps no part alive.
func TestTableBuiltStrings(t *testing.T) {
	tr := New(vtime.New())
	var nilTracer *Tracer
	parts := [][]string{nil, {""}, {"hop"}, {"call:", "submit", "#", "17"}, {"", "a", "", "b\n\""}}
	for _, p := range parts {
		want := strings.Join(p, "")
		if got := tr.Concat(p...); got != want {
			t.Errorf("Concat(%q) = %q, want %q", p, got, want)
		}
		if got := nilTracer.Concat(p...); got != want {
			t.Errorf("nil Concat(%q) = %q, want %q", p, got, want)
		}
		for _, tc := range []struct{ c, want Ctx }{
			{Ctx{}, Ctx{}},
			{Ctx{Span: "req/x"}, Ctx{}},
			{Ctx{Req: "r"}, Ctx{Req: "r", Span: want}},
			{NewRequest("r"), Ctx{Req: "r", Span: "req/" + want}},
			{Ctx{Req: "r", Span: "req/x"}, Ctx{Req: "r", Span: "req/x/" + want}},
		} {
			if got := tr.Child(tc.c, p...); got != tc.want {
				t.Errorf("Child(%+v, %q) = %+v, want %+v", tc.c, p, got, tc.want)
			}
			if got := nilTracer.Child(tc.c, p...); got != (Ctx{}) {
				t.Errorf("nil Child(%+v, %q) = %+v, want the zero Ctx", tc.c, p, got)
			}
		}
	}
	for _, n := range []int{-12, 0, 7, 99, 100, 65535, 1 << 40} {
		if got, want := tr.Itoa(n), strconv.Itoa(n); got != want || nilTracer.Itoa(n) != want {
			t.Errorf("Itoa(%d) = %q and %q without a tracer, want %q", n, got, nilTracer.Itoa(n), want)
		}
	}

	buf := strings.Repeat("x", 64<<10) + "call:submit"
	method := buf[64<<10+len("call:"):]
	first := tr.Concat("call:", method)
	lo, p := uintptr(unsafe.Pointer(unsafe.StringData(buf))), uintptr(unsafe.Pointer(unsafe.StringData(first)))
	if p >= lo && p < lo+uintptr(len(buf)) {
		t.Error("Concat returned a view of its part")
	}
	ctx := NewRequest("r1")
	span := tr.Child(ctx, "call:", method, "#", tr.Itoa(250)).Span
	if allocs := testing.AllocsPerRun(100, func() {
		if s := tr.Concat("call:", method); unsafe.StringData(s) != unsafe.StringData(first) {
			t.Fatal("the same string came back at another address")
		}
		tr.Child(ctx, "call:", method, "#", tr.Itoa(250))
		tr.InstantCtx(Ctx{Req: ctx.Req, Span: span}, "rpc", first, "a", "a->b", "")
	}); allocs != 0 {
		t.Errorf("strings the table has, and an event that carries them: %v allocations, want 0", allocs)
	}
}
