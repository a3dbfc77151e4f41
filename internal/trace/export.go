package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"cogrid/internal/metrics"
	"cogrid/internal/vtime"
)

// jsonlEvent is the JSONL wire form: virtual times in integer nanoseconds.
type jsonlEvent struct {
	At   int64             `json:"at"`
	Dur  int64             `json:"dur,omitempty"`
	Cat  string            `json:"cat"`
	Name string            `json:"name"`
	Proc string            `json:"proc,omitempty"`
	Thr  string            `json:"thr,omitempty"`
	ID   string            `json:"id,omitempty"`
	Req  string            `json:"req,omitempty"`
	Span string            `json:"span,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// jsonlBufPool recycles encode buffers across WriteJSONL calls, so tracing
// a long run amortizes to zero allocations per event in steady state
// (BenchmarkWriteJSONL / TestWriteJSONLAllocs pin this down).
var jsonlBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024)
		return &b
	},
}

// jsonlFlushAt bounds buffered bytes before flushing to the writer.
const jsonlFlushAt = 48 * 1024

// WriteJSONL writes events one JSON object per line. Events must already be
// in the desired order (Tracer.Events returns the deterministic order).
// Encoding appends into a pooled buffer — no per-event allocation — and the
// output is parseable by ReadJSONL; field order matches jsonlEvent.
func WriteJSONL(w io.Writer, events []Event) error {
	return writeJSONL(w, len(events), func(i int) *Event { return &events[i] })
}

// writeJSONL encodes the n events at(0..n-1) in that order.
func writeJSONL(w io.Writer, n int, at func(i int) *Event) error {
	bp := jsonlBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0]
		jsonlBufPool.Put(bp)
	}()
	for i := 0; i < n; i++ {
		buf = appendJSONLEvent(buf, at(i))
		if len(buf) >= jsonlFlushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	return nil
}

// appendJSONLEvent appends one event as a JSON object plus newline,
// mirroring jsonlEvent's field order and omitempty semantics.
func appendJSONLEvent(buf []byte, ev *Event) []byte {
	buf = append(buf, `{"at":`...)
	buf = strconv.AppendInt(buf, int64(ev.At), 10)
	if ev.Dur != 0 {
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendInt(buf, int64(ev.Dur), 10)
	}
	buf = append(buf, `,"cat":`...)
	buf = appendJSONString(buf, ev.Cat)
	buf = append(buf, `,"name":`...)
	buf = appendJSONString(buf, ev.Name)
	buf = appendOptField(buf, "proc", ev.Proc)
	buf = appendOptField(buf, "thr", ev.Thr)
	buf = appendOptField(buf, "id", ev.ID)
	buf = appendOptField(buf, "req", ev.Req)
	buf = appendOptField(buf, "span", ev.Span)
	if len(ev.Args) > 0 {
		buf = append(buf, `,"args":{`...)
		// Keys in sorted order, matching encoding/json map output. Arg
		// lists are tiny (≤ ~3), so an index selection sort avoids
		// allocating a scratch slice.
		emitted := 0
		prev := ""
		for emitted < len(ev.Args) {
			next := -1
			for i, a := range ev.Args {
				if (emitted == 0 || a.Key > prev) && (next < 0 || a.Key < ev.Args[next].Key) {
					next = i
				}
			}
			if next < 0 {
				break // duplicate keys: emit each distinct key once
			}
			if emitted > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, ev.Args[next].Key)
			buf = append(buf, ':')
			buf = appendJSONString(buf, ev.Args[next].Val)
			prev = ev.Args[next].Key
			emitted++
		}
		buf = append(buf, '}')
	}
	return append(buf, '}', '\n')
}

func appendOptField(buf []byte, key, val string) []byte {
	if val == "" {
		return buf
	}
	buf = append(buf, ',', '"')
	buf = append(buf, key...)
	buf = append(buf, '"', ':')
	return appendJSONString(buf, val)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Escaping follows
// RFC 8259 (quote, backslash, and control characters; UTF-8 passes
// through verbatim) — strconv.AppendQuote is not usable here because Go
// string escaping is not JSON escaping.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// ReadJSONL parses a JSONL trace written by WriteJSONL back into events,
// preserving order. Blank lines are skipped.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return nil, fmt.Errorf("trace: bad JSONL line %d: %w", len(events)+1, err)
		}
		ev := Event{
			At:   time.Duration(je.At),
			Dur:  time.Duration(je.Dur),
			Cat:  je.Cat,
			Name: je.Name,
			Proc: je.Proc,
			Thr:  je.Thr,
			ID:   je.ID,
			Req:  je.Req,
			Span: je.Span,
		}
		if len(je.Args) > 0 {
			keys := make([]string, 0, len(je.Args))
			for k := range je.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				ev.Args = append(ev.Args, Arg{Key: k, Val: je.Args[k]})
			}
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// WriteJSONL writes the tracer's events as JSONL in deterministic order,
// straight from the event store: the sorted copy Events makes is not built.
// Nil-safe.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	n, at := t.snapshot()
	order := exportOrder(n, at)
	return writeJSONL(w, n, func(i int) *Event { return at(order[i]) })
}

// chromeEvent is one entry of the Chrome trace_event format (the JSON Array
// Format of the Trace Event specification), loadable in chrome://tracing
// and Perfetto. Timestamps are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	ID   string            `json:"id,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes events in Chrome trace_event JSON object format.
// Spans become complete ("X") events and instants become thread-scoped
// instant ("i") events. Processes and threads are assigned stable integer
// ids in sorted-name order, with metadata records naming each, so the same
// event set always serializes to the same bytes.
func WriteChromeTrace(w io.Writer, events []Event) error {
	// Assign pids to sorted process names and tids to sorted thread names
	// within each process.
	procs := map[string]int{}
	threads := map[string]map[string]int{}
	var procNames []string
	for _, ev := range events {
		if _, ok := procs[ev.Proc]; !ok {
			procs[ev.Proc] = 0
			threads[ev.Proc] = map[string]int{}
			procNames = append(procNames, ev.Proc)
		}
		threads[ev.Proc][ev.Thr] = 0
	}
	sort.Strings(procNames)
	var out []chromeEvent
	for i, p := range procNames {
		procs[p] = i + 1
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]string{"name": p},
		})
		var thrNames []string
		for thr := range threads[p] {
			thrNames = append(thrNames, thr)
		}
		sort.Strings(thrNames)
		for k, thr := range thrNames {
			threads[p][thr] = k + 1
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: i + 1, Tid: k + 1,
				Args: map[string]string{"name": thr},
			})
		}
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ts:   float64(ev.At) / float64(time.Microsecond),
			Pid:  procs[ev.Proc],
			Tid:  threads[ev.Proc][ev.Thr],
			ID:   ev.ID,
			Args: argMap(ev.Args),
		}
		if ev.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(ev.Dur) / float64(time.Microsecond)
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		out = append(out, ce)
	}
	raw, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"})
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// WriteChromeTrace writes the tracer's events as a Chrome trace in
// deterministic order.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Events())
}

func argMap(args []Arg) map[string]string {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]string, len(args))
	for _, a := range args {
		m[a.Key] = a.Val
	}
	return m
}

// itoa formats small integers for Args and span segments.
func itoa(n int) string { return strconv.Itoa(n) }

// DeriveTimeline projects trace events onto a metrics.Timeline, the
// renderer of the Figure 5 view: every event pick accepts becomes a
// timeline span with Actor = Thr (Proc when there is none) and Phase =
// Name. IsPhase picks the phases of a submission; what else belongs on a
// timeline is the caller's to say.
func DeriveTimeline(sim *vtime.Sim, events []Event, pick func(Event) bool) *metrics.Timeline {
	tl := metrics.NewTimeline(sim)
	for _, ev := range events {
		if !pick(ev) {
			continue
		}
		actor := ev.Thr
		if actor == "" {
			actor = ev.Proc
		}
		tl.Add(actor, ev.Name, ev.At, ev.At+ev.Dur)
	}
	return tl
}

// phases names, by category, the spans the layers record as the phases of
// a submission (gram.Server.record, core.Controller.record): the
// gatekeeper's, which are Figure 3's rows, and the co-allocator's
// per-subjob ones, which with them make Figure 5.
var phases = map[string][]string{
	"gram":  {"authentication", "misc", "initgroups", "fork"},
	"duroc": {"submit", "startup-wait", "barrier"},
}

// IsPhase reports whether ev is one of those spans. It goes by category and
// name, not by duration: the barrier of the last subjob to check in is a
// phase of no length, and neither the job-level commit span nor an instant
// of the same category is a phase.
func IsPhase(ev Event) bool { return slices.Contains(phases[ev.Cat], ev.Name) }
