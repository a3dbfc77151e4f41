// Package flightrec is the always-on black box of the co-allocation stack:
// a bounded-memory flight recorder that mirrors the live trace stream into
// per-component ring buffers and, on a trigger (watchdog abort, orphan
// record, replica crash, SLO breach, DST invariant violation), freezes the
// recent past into a deterministic JSONL dump.
//
// The recorder attaches to the tracer as a trace.Tap, so it sees every
// event every layer emits without any layer knowing it exists. The record
// path is allocation-free: each component (trace category) owns a fixed
// circular buffer sized at construction, and recording is an array write —
// the same always-on cost profile as metrics.Histogram.Record.
// A tap may not keep the args slice it is handed, so each slot of a ring
// owns room for slotArgs args and copies an event's args into it.
//
// # Determinism
//
// Two runs with the same seed must produce byte-identical dumps. Under the
// run token they would with any ring, since the events of one virtual
// instant arrive in a FIFO order that is a function of the seed. The rules
// below buy more: what the recorder retains does not depend on the order
// of same-instant events at all (nothing checks that independence yet).
//
//   - Every entry is stamped with the virtual time it was seen, so each
//     ring's entries are monotone in seen-time.
//   - Eviction only ever drops the oldest *whole instant* of a ring, and
//     only counts entries from *sealed* instants (instants strictly older
//     than the newest seen time) against the ring's retention capacity.
//     How many events of the current, still-open instant have arrived is
//     thus irrelevant to what older history survives.
//   - A dump taken at trigger time t snapshots only entries seen strictly
//     before t and re-applies the same whole-instant retention rule, so the
//     dump is identical whether zero or many same-instant events come
//     ahead of the trigger.
//
// The guarantee holds as long as no single component emits more than the
// ring capacity within one virtual instant; such a burst physically cannot
// fit and forces entry-granular eviction (counted in Overflows).
package flightrec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// Options configures a Recorder. Zero values select the defaults.
type Options struct {
	// RingCap is the per-component retention capacity in events
	// (default 512). Each ring physically holds 2x this so the current
	// instant can fill up without evicting sealed history.
	RingCap int
}

// maxDumps bounds retained dumps. The first failures are the interesting
// ones, so later triggers beyond the bound are counted but not kept.
const maxDumps = 16

func (o *Options) fill() {
	if o.RingCap <= 0 {
		o.RingCap = 512
	}
}

// Dump is one frozen black box: the retained recent events of every
// component at trigger time, in deterministic trace order.
type Dump struct {
	// At is the virtual trigger time; only events seen strictly before
	// it are included.
	At time.Duration
	// Trigger identifies the trigger kind, optionally "kind:qualifier"
	// (e.g. "slo:broker-drop-storm"). Kind selects the dump counter.
	Trigger string
	// Detail is free-form deterministic context (job id, replica name).
	Detail string
	// Events is the retained window sorted by trace.Sort.
	Events []trace.Event
}

// Kind returns the trigger kind: the part of Trigger before the first ':'.
func (d Dump) Kind() string {
	if i := strings.IndexByte(d.Trigger, ':'); i >= 0 {
		return d.Trigger[:i]
	}
	return d.Trigger
}

// entry is one ring slot. Its ev.Args is the slot's own storage, kept
// across the events the slot holds in turn.
type entry struct {
	ev   trace.Event
	seen time.Duration
}

// slotArgs is how many args a slot holds without allocating: what nearly
// every event carries. A slot handed more grows its storage once.
const slotArgs = 2

// clear empties the entry, keeping its args storage for the slot's next
// event.
func (e *entry) clear() {
	clear(e.ev.Args)
	*e = entry{ev: trace.Event{Args: e.ev.Args[:0]}}
}

// ring is one component's fixed circular deque, its entries monotone in
// seen.
type ring struct {
	buf  []entry // fixed at 2*cap
	head int     // index of oldest entry
	n    int     // live entries
	// sealed counts entries (from head) whose seen < lastSeen; only they
	// are charged against the retention capacity.
	sealed    int
	lastSeen  time.Duration
	overflows int64 // single-instant bursts that forced entry-granular drops
}

// Recorder is the flight recorder. A nil *Recorder is a valid no-op for
// every method, so untraced paths need no guards.
type Recorder struct {
	sim  *vtime.Sim
	opts Options

	rings map[string]*ring

	dumps   []Dump
	skipped int64 // triggers beyond maxDumps

	ctrs *trace.Counters
}

// New creates a recorder stamping entries with sim's virtual clock.
func New(sim *vtime.Sim, opts Options) *Recorder {
	opts.fill()
	return &Recorder{sim: sim, opts: opts, rings: make(map[string]*ring)}
}

// SetCounters attaches a counter registry; each trigger then increments
// flightrec.dump.<kind> (and flightrec.dump.skip when beyond maxDumps).
func (r *Recorder) SetCounters(c *trace.Counters) {
	if r != nil {
		r.ctrs = c
	}
}

func (r *Recorder) ring(cat string) *ring {
	if rg, ok := r.rings[cat]; ok {
		return rg
	}
	rg := &ring{buf: make([]entry, 2*r.opts.RingCap)}
	args := make([]trace.Arg, len(rg.buf)*slotArgs)
	for i := range rg.buf {
		rg.buf[i].ev.Args = args[i*slotArgs : i*slotArgs : (i+1)*slotArgs]
	}
	r.rings[cat] = rg
	return rg
}

// Record mirrors one trace event into its component's ring, copying its
// args (the trace.Tap contract). Nil-safe and allocation-free once the
// component's ring exists (a component's first event allocates its fixed
// buffer) for events of up to slotArgs args.
func (r *Recorder) Record(ev trace.Event) {
	if r == nil {
		return
	}
	r.ring(ev.Cat).push(ev, r.sim.Now(), r.opts.RingCap)
}

// push appends ev seen at seen, evicting at whole-instant granularity so
// that retained history never depends on same-instant arrival races.
func (rg *ring) push(ev trace.Event, seen time.Duration, cap int) {
	if seen > rg.lastSeen {
		// A new instant begins: everything currently buffered is sealed.
		rg.lastSeen = seen
		rg.sealed = rg.n
	}
	if rg.n == len(rg.buf) {
		// Physically full. If anything is sealed, drop the oldest whole
		// instant; otherwise one giant instant fills the ring and we must
		// fall back to entry-granular eviction (nondeterministic window,
		// counted so tests can assert it never happens under normal load).
		if rg.sealed > 0 {
			rg.dropOldestInstant()
		} else {
			rg.buf[rg.head].clear()
			rg.head = (rg.head + 1) % len(rg.buf)
			rg.n--
			rg.overflows++
		}
	}
	e := &rg.buf[(rg.head+rg.n)%len(rg.buf)]
	args := append(e.ev.Args[:0], ev.Args...)
	e.ev, e.seen = ev, seen
	e.ev.Args = args
	rg.n++
	// Retention rule: at most cap sealed entries, trimmed oldest-whole-
	// instant first. Current-instant entries ride in the slack half.
	for rg.sealed > cap {
		rg.dropOldestInstant()
	}
}

// dropOldestInstant evicts every entry of the oldest seen-instant. The
// oldest instant is sealed whenever sealed > 0.
func (rg *ring) dropOldestInstant() {
	t0 := rg.buf[rg.head].seen
	for rg.n > 0 && rg.buf[rg.head].seen == t0 {
		rg.buf[rg.head].clear()
		rg.head = (rg.head + 1) % len(rg.buf)
		rg.n--
		if rg.sealed > 0 {
			rg.sealed--
		}
	}
}

// slot returns the i-th live entry from the oldest.
func (rg *ring) slot(i int) *entry { return &rg.buf[(rg.head+i)%len(rg.buf)] }

// window returns the slot range [lo, hi) of the retained events seen
// strictly before at, re-applying the whole-instant retention rule so the
// result does not depend on how many at-instant events raced in before the
// trigger: the newest pre-at instant B is kept whole, then older whole
// instants are kept newest-first while the non-B total stays within
// cap - len(B).
func (rg *ring) window(at time.Duration, cap int) (lo, hi int) {
	// Seen stamps are monotone, so the entries seen before at are a prefix.
	n := 0
	for n < rg.n && rg.slot(n).seen < at {
		n++
	}
	if n == 0 {
		return 0, 0
	}
	b := rg.slot(n - 1).seen
	i := n
	for i > 0 && rg.slot(i-1).seen == b {
		i--
	}
	budget := cap - (n - i)
	j := i
	for j > 0 {
		t := rg.slot(j - 1).seen
		k := j
		for k > 0 && rg.slot(k-1).seen == t {
			k--
		}
		if i-k > budget {
			break
		}
		j = k
	}
	return j, n
}

// Snapshot returns every component's retained events seen strictly before
// at, in deterministic trace order. Nil-safe.
//
// It measures before it copies, so the result takes one events array and
// one args array (the slots' args are reused, so they are copied out).
// Rings are read in category order.
func (r *Recorder) Snapshot(at time.Duration) []trace.Event {
	if r == nil {
		return nil
	}
	type win struct {
		cat    string
		rg     *ring
		lo, hi int
	}
	wins := make([]win, 0, len(r.rings))
	for cat, rg := range r.rings {
		wins = append(wins, win{cat: cat, rg: rg})
	}
	slices.SortFunc(wins, func(a, b win) int { return strings.Compare(a.cat, b.cat) })
	nevents, nargs := 0, 0
	for i := range wins {
		w := &wins[i]
		w.lo, w.hi = w.rg.window(at, r.opts.RingCap)
		nevents += w.hi - w.lo
		for k := w.lo; k < w.hi; k++ {
			nargs += len(w.rg.slot(k).ev.Args)
		}
	}
	var out []trace.Event
	if nevents > 0 {
		out = make([]trace.Event, 0, nevents)
	}
	args := make([]trace.Arg, nargs)
	for _, w := range wins {
		for k := w.lo; k < w.hi; k++ {
			ev := w.rg.slot(k).ev
			if m := copy(args, ev.Args); m > 0 {
				ev.Args, args = args[:m:m], args[m:]
			} else {
				ev.Args = nil
			}
			out = append(out, ev)
		}
	}
	trace.Sort(out)
	return out
}

// Trigger freezes the black box: it snapshots every ring as of now and
// retains the dump, up to maxDumps, and returns it. Retention is decided
// first: a trigger beyond maxDumps counts into flightrec.dump.skip and
// copies nothing, returning a Dump with At, Trigger and Detail set and no
// Events. Nil-safe.
func (r *Recorder) Trigger(trigger, detail string) Dump {
	if r == nil {
		return Dump{}
	}
	d := Dump{At: r.sim.Now(), Trigger: trigger, Detail: detail}
	if len(r.dumps) >= maxDumps {
		r.skipped++
		r.ctrs.AddKey("flightrec", "dump", "skip", "", 1)
		return d
	}
	d.Events = r.Snapshot(d.At)
	r.dumps = append(r.dumps, d)
	r.ctrs.AddKey("flightrec", "dump", d.Kind(), "", 1)
	return d
}

// Dumps returns the retained dumps sorted by (At, Trigger, Detail) — the
// deterministic order for export and assertions. Nil-safe.
func (r *Recorder) Dumps() []Dump {
	if r == nil {
		return nil
	}
	out := slices.Clone(r.dumps)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Trigger != out[j].Trigger {
			return out[i].Trigger < out[j].Trigger
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// Skipped returns how many triggers arrived after maxDumps was reached.
func (r *Recorder) Skipped() int64 {
	if r == nil {
		return 0
	}
	return r.skipped
}

// Overflows returns how many entries were evicted at entry granularity
// because a single instant overfilled a ring — the one case the
// determinism guarantee excludes. Zero under normal load.
func (r *Recorder) Overflows() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, rg := range r.rings {
		n += rg.overflows
	}
	return n
}

// dumpHeader is the first JSONL line of a serialized dump.
type dumpHeader struct {
	Flightrec string `json:"flightrec"`
	Trigger   string `json:"trigger"`
	Detail    string `json:"detail"`
	AtNs      int64  `json:"at_ns"`
	Events    int    `json:"events"`
}

// WriteDump serializes d as JSONL: one header line, then one line per
// event in trace export format. Byte-identical for identical dumps.
func WriteDump(w io.Writer, d Dump) error {
	hdr, err := json.Marshal(dumpHeader{
		Flightrec: "v1",
		Trigger:   d.Trigger,
		Detail:    d.Detail,
		AtNs:      int64(d.At),
		Events:    len(d.Events),
	})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return err
	}
	return trace.WriteJSONL(w, d.Events)
}

// ReadDump parses a dump serialized by WriteDump.
func ReadDump(rd io.Reader) (Dump, error) {
	br := bufio.NewReader(rd)
	line, err := br.ReadString('\n')
	if err != nil && (err != io.EOF || line == "") {
		return Dump{}, fmt.Errorf("flightrec: read header: %w", err)
	}
	var hdr dumpHeader
	if err := json.Unmarshal([]byte(line), &hdr); err != nil {
		return Dump{}, fmt.Errorf("flightrec: parse header: %w", err)
	}
	if hdr.Flightrec != "v1" {
		return Dump{}, fmt.Errorf("flightrec: unknown dump version %q", hdr.Flightrec)
	}
	events, err := trace.ReadJSONL(br)
	if err != nil {
		return Dump{}, fmt.Errorf("flightrec: read events: %w", err)
	}
	d := Dump{At: time.Duration(hdr.AtNs), Trigger: hdr.Trigger, Detail: hdr.Detail, Events: events}
	if len(events) != hdr.Events {
		return d, fmt.Errorf("flightrec: header says %d events, got %d", hdr.Events, len(events))
	}
	return d, nil
}

// Validate checks a dump's events for structural well-formedness. A dump
// is a window, not a complete trace, so full causal checks (coverage,
// single-rooted trees, critical-path partition) cannot apply; what must
// hold in any window: deterministic sort order, non-negative times and
// durations, named and categorized events, and no span path without a
// request id.
func Validate(events []trace.Event) error {
	for i, ev := range events {
		if i > 0 && trace.Less(ev, events[i-1]) {
			return fmt.Errorf("event %d out of deterministic trace order", i)
		}
		if ev.At < 0 {
			return fmt.Errorf("event %d (%s/%s): negative timestamp %v", i, ev.Cat, ev.Name, ev.At)
		}
		if ev.Dur < 0 {
			return fmt.Errorf("event %d (%s/%s): negative duration %v", i, ev.Cat, ev.Name, ev.Dur)
		}
		if ev.Cat == "" {
			return fmt.Errorf("event %d (%s): empty category", i, ev.Name)
		}
		if ev.Name == "" {
			return fmt.Errorf("event %d (%s): empty name", i, ev.Cat)
		}
		if ev.Span != "" && ev.Req == "" {
			return fmt.Errorf("event %d (%s/%s): span path %q without request id", i, ev.Cat, ev.Name, ev.Span)
		}
	}
	return nil
}
