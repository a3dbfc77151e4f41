// Package trace provides the observability substrate for the co-allocation
// stack: a deterministic, virtual-time-stamped structured event layer and a
// counter registry.
//
// Every layer of the stack emits typed events through a shared *Tracer —
// transport message hops, RPC call/reply pairs, GRAM job state transitions,
// DUROC subjob lifecycle and commit phases — so one co-allocation run can be
// decomposed span-by-span, exactly the per-layer latency attribution the
// paper's Figures 2-5 perform by hand.
//
// All Tracer and Counters methods are nil-safe: a nil *Tracer (the default
// everywhere) records nothing and costs nothing, so untraced paths stay
// zero-cost. Events are kept in emission order and sorted on export by a
// total order over their content, one that does not depend on which process
// the kernel ran first within a virtual instant and that a flight-recorder
// dump can be checked against (Less): two runs with the same seed produce
// byte-identical traces.
package trace

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"time"

	"cogrid/internal/vtime"
)

// Arg is one key/value annotation on an event.
type Arg struct {
	Key string
	Val string
}

// Event is a single structured trace event. Dur == 0 makes it an instant;
// Dur > 0 makes it a complete span [At, At+Dur).
type Event struct {
	// At is the virtual time of the event (span start for spans).
	At time.Duration
	// Dur is the span length; zero for instant events.
	Dur time.Duration
	// Cat is the emitting layer: "transport", "rpc", "gram", "duroc", or an
	// application-chosen category.
	Cat string
	// Name identifies the event within its category, e.g. "hop",
	// "call:submit", "state:active", "commit".
	Name string
	// Proc is the process track (usually a host or actor name).
	Proc string
	// Thr is the thread track within Proc (a connection flow, a service
	// name, or a job/subjob label).
	Thr string
	// ID is an optional correlation identifier shared by related events,
	// e.g. an RPC call and its reply processing on the server.
	ID string
	// Req is the causal request id this event belongs to (empty for
	// events outside any request tree).
	Req string
	// Span is the event's position in the request's causal tree: a
	// "/"-separated path from the root ("req"), e.g.
	// "req/call:submit#1/serve/attempt1/sj:site00/submit". The parent
	// span is the longest proper path prefix that names another span.
	Span string
	// Args are optional annotations.
	Args []Arg
}

// Ctx is a propagated span context: the request id plus the causal path of
// the current span. On a traced network it is carried through RPC envelopes,
// transport message metadata and a subjob's DUROC_TRACE, so every layer
// stamps its events into the same request tree. Contexts are derived only by
// a tracer (Tracer.Child): on an untraced network every derived context is
// the zero Ctx, "untraced", and nothing carries one.
type Ctx struct {
	Req  string
	Span string
}

// NewRequest roots a fresh causal tree for request id. The root span path
// is always "req" so analyzers can find the request root by name.
func NewRequest(id string) Ctx { return Ctx{Req: id, Span: "req"} }

// Valid reports whether the context belongs to a request tree.
func (c Ctx) Valid() bool { return c.Req != "" }

// Concat returns the concatenation of parts. A tracer builds it in its
// string table and returns the table's own copy, so a string it has seen
// before costs no allocation, and an event that carries it is recorded
// without looking it up again. A nil tracer concatenates as + does.
func (t *Tracer) Concat(parts ...string) string {
	if t == nil {
		return strings.Join(parts, "")
	}
	return t.store.strs.build("", "", parts)
}

// Itoa is strconv.Itoa(n), from the string table as Concat's strings are.
func (t *Tracer) Itoa(n int) string {
	if t == nil {
		return strconv.Itoa(n)
	}
	tab := &t.store.strs
	tab.scratch = strconv.AppendInt(tab.scratch[:0], int64(n), 10)
	return tab.internBuilt(tab.scratch)
}

// Child derives the context for a sub-span of c named by the concatenation
// of parts: c's path, "/", then the parts, built in the string table as
// Concat builds its strings (a context with a request but no path takes the
// parts alone). Deriving from the zero Ctx yields the zero Ctx, and so does
// a nil tracer, whatever c is: an untraced network derives no context, so
// none rides its wire.
func (t *Tracer) Child(c Ctx, parts ...string) Ctx {
	if t == nil || c.Req == "" {
		return Ctx{}
	}
	sep := "/"
	if c.Span == "" {
		sep = ""
	}
	return Ctx{Req: c.Req, Span: t.store.strs.build(c.Span, sep, parts)}
}

// Seg sanitizes s for use as a span path segment: "/" is the path
// separator, so embedded slashes (job ids, subjob labels) become "_".
func Seg(s string) string { return strings.ReplaceAll(s, "/", "_") }

// String encodes the context for out-of-band carriers (e.g. an environment
// variable handed to a spawned process). ParseCtx inverts it.
func (c Ctx) String() string { return c.Req + "|" + c.Span }

// ParseCtx decodes a Ctx produced by String. Malformed or empty input
// yields the zero Ctx.
func ParseCtx(s string) Ctx {
	i := strings.IndexByte(s, '|')
	if i < 0 {
		return Ctx{}
	}
	return Ctx{Req: s[:i], Span: s[i+1:]}
}

// Tap observes every event the tracer records, synchronously on the
// emitting goroutine. A tap must be cheap and must not call back into the
// tracer. The flight recorder is the canonical tap: it mirrors the live
// event stream into bounded ring buffers without growing the trace.
//
// What a tap may keep of the event it is handed: everything but the
// backing array of its Args. The strings never change, but the args come
// in a buffer the tracer reuses for other events once Record returns, so a
// tap that keeps an event's args keeps a copy of them.
type Tap interface {
	Record(Event)
}

// Tracer records events in virtual time. The zero value is not usable;
// create with New. A nil *Tracer is a valid no-op tracer.
type Tracer struct {
	sim *vtime.Sim
	tap Tap
	// The recorded events, pointer-free (store.go). An emitter's variadic
	// args slice is read into the store and not kept, so it never outlives
	// the call and can stay on the emitter's stack.
	store store
	// tapArgs is where the tap is handed an event's args, reused for every
	// event: a tap copies what it keeps (Tap).
	tapArgs []Arg
}

// New creates a tracer stamping events with sim's virtual clock.
func New(sim *vtime.Sim) *Tracer { return &Tracer{sim: sim} }

// Enabled reports whether the tracer records events. It is the idiomatic
// guard before building expensive annotations.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the current virtual time, or zero on a nil tracer. Use it to
// capture span start times without touching the kernel on untraced paths.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.sim.Now()
}

// SetTap installs tap to observe every subsequent event; nil detaches.
// Nil-safe on a nil tracer.
func (t *Tracer) SetTap(tap Tap) {
	if t != nil {
		t.tap = tap
	}
}

// Emit records ev as given; the tracer keeps no reference to ev.Args.
// Nil-safe.
func (t *Tracer) Emit(ev Event) {
	if t != nil {
		t.emit(ev, ev.Args)
	}
}

// emit records ev with args as its Args. The helpers below pass their
// variadic slice here beside the event, not inside it, so that the slice
// itself does not escape: only what it holds is read.
func (t *Tracer) emit(ev Event, args []Arg) {
	t.store.add(&ev, args)
	if t.tap == nil {
		return
	}
	if len(args) == 0 {
		ev.Args = nil
		t.tap.Record(ev)
		return
	}
	t.tapArgs = append(t.tapArgs[:0], args...)
	ev.Args = t.tapArgs
	t.tap.Record(ev)
}

// Instant records an instant event stamped now. Nil-safe.
func (t *Tracer) Instant(cat, name, proc, thr, id string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(Event{At: t.sim.Now(), Cat: cat, Name: name, Proc: proc, Thr: thr, ID: id}, args)
}

// Span records a complete span from start to now. Nil-safe.
func (t *Tracer) Span(cat, name, proc, thr, id string, start time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.SpanAt(cat, name, proc, thr, id, start, t.sim.Now(), args...)
}

// SpanAt records a complete span over [start, end). A span with end < start
// is recorded with zero duration. Nil-safe.
func (t *Tracer) SpanAt(cat, name, proc, thr, id string, start, end time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.emit(Event{At: start, Dur: dur, Cat: cat, Name: name, Proc: proc, Thr: thr, ID: id}, args)
}

// InstantCtx records an instant event stamped now, tagged with the span
// context. Nil-safe.
func (t *Tracer) InstantCtx(ctx Ctx, cat, name, proc, thr, id string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(Event{At: t.sim.Now(), Cat: cat, Name: name, Proc: proc, Thr: thr, ID: id,
		Req: ctx.Req, Span: ctx.Span}, args)
}

// SpanCtx records a complete span from start to now, tagged with the span
// context. Nil-safe.
func (t *Tracer) SpanCtx(ctx Ctx, cat, name, proc, thr, id string, start time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.SpanAtCtx(ctx, cat, name, proc, thr, id, start, t.sim.Now(), args...)
}

// SpanAtCtx records a complete span over [start, end), tagged with the
// span context. A span with end < start is recorded with zero duration.
// Nil-safe.
func (t *Tracer) SpanAtCtx(ctx Ctx, cat, name, proc, thr, id string, start, end time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.emit(Event{At: start, Dur: dur, Cat: cat, Name: name, Proc: proc, Thr: thr, ID: id,
		Req: ctx.Req, Span: ctx.Span}, args)
}

// Len returns the number of recorded events (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.store.n
}

// Events returns a copy of the recorded events in the deterministic export
// order. Returns nil on a nil tracer. The strings are the tracer's own;
// the Args of all the events share one backing array, each cut to length.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	v := t.store
	out := make([]Event, v.n)
	args := make([]Arg, v.nargs)
	for i, k := range v.order() {
		r := v.rec(k.i)
		out[i] = v.event(r, args[:r.nargs:r.nargs])
		args = args[r.nargs:]
	}
	return out
}

// Sort orders events by the total deterministic order used for export:
// time, then process, thread, category, name, correlation ID, duration, and
// finally argument content. Emission order is itself a function of the seed
// (one run token serialises the simulated processes); the sort gives events
// from any source — a tracer, a merged set of flight-recorder rings, a file
// — one defined order, because each event's content is deterministic. It
// sorts in place: beside events, it allocates only the 4-byte-per-event
// permutation.
func Sort(events []Event) {
	order := exportOrder(len(events), func(i, j uint32) int { return compare(&events[i], &events[j]) })
	// Move each cycle of the permutation once, marking a done position by
	// making it a fixed point.
	for i := range order {
		if order[i] == uint32(i) {
			continue
		}
		ev := events[i]
		j := uint32(i)
		for order[j] != uint32(i) {
			k := order[j]
			events[j] = events[k]
			order[j] = j
			j = k
		}
		events[j] = ev
		order[j] = j
	}
}

// exportOrder returns the permutation that puts n events into export
// order, where cmp compares the events at two indices. Events that compare
// equal are equal in every field, so the sort need not be stable. Sorting
// indices instead of the events moves 4 bytes per step where an Event is
// 152 with pointers in it.
func exportOrder(n int, cmp func(i, j uint32) int) []uint32 {
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, cmp)
	return order
}

// Less reports whether a sorts strictly before b in the deterministic
// export order — the comparator behind Sort, exported so dump validators
// can verify an event stream is already in trace order.
func Less(a, b Event) bool { return compare(&a, &b) < 0 }

func compare(a, b *Event) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	if c := strings.Compare(a.Proc, b.Proc); c != 0 {
		return c
	}
	if c := strings.Compare(a.Thr, b.Thr); c != 0 {
		return c
	}
	if c := strings.Compare(a.Cat, b.Cat); c != 0 {
		return c
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	if c := strings.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	if c := strings.Compare(a.Req, b.Req); c != 0 {
		return c
	}
	if c := strings.Compare(a.Span, b.Span); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dur, b.Dur); c != 0 {
		return c
	}
	for k := 0; k < len(a.Args) && k < len(b.Args); k++ {
		if c := strings.Compare(a.Args[k].Key, b.Args[k].Key); c != 0 {
			return c
		}
		if c := strings.Compare(a.Args[k].Val, b.Args[k].Val); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a.Args), len(b.Args))
}
