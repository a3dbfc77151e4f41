package trace

import (
	"slices"
	"strconv"
	"testing"

	"cogrid/internal/vtime"
)

// keepingTap retains what it is handed, the way the flight recorder does:
// the event, and a copy of its args (Tap).
type keepingTap struct{ seen []Event }

func (k *keepingTap) Record(ev Event) {
	ev.Args = slices.Clone(ev.Args)
	k.seen = append(k.seen, ev)
}

// An event's args belong to the event from the moment it is emitted: the
// emitter's variadic slice is a temporary the compiler is free to reuse for
// the next call (and does, as soon as it does not escape). Whatever the
// emitter goes on to emit, a tap that retained the event as the Tap
// contract allows and Events() both still see what was passed.
func TestTapAndEventsSeeTheArgs(t *testing.T) {
	sim := vtime.New()
	tr := New(sim)
	tap := &keepingTap{}
	tr.SetTap(tap)
	const n = 3 * chunkSize / 2 // crosses an event-chunk boundary
	for i := 0; i < n; i++ {
		v := strconv.Itoa(i)
		scratch := Arg{Key: "i", Val: v}
		switch i % 4 {
		case 0:
			tr.Instant("c", "instant", "p", "t", v, scratch, Arg{Key: "kind", Val: "instant"})
		case 1:
			tr.SpanAt("c", "span", "p", "t", v, 0, 1, scratch, Arg{Key: "kind", Val: "span"})
		case 2:
			tr.SpanAtCtx(NewRequest("r"), "c", "spanctx", "p", "t", v, 0, 1, scratch, Arg{Key: "kind", Val: "spanctx"})
		case 3:
			tr.InstantCtx(NewRequest("r"), "c", "instantctx", "p", "t", v, scratch)
		}
	}

	check := func(who string, events []Event) {
		t.Helper()
		if len(events) != n {
			t.Fatalf("%s saw %d events, want %d", who, len(events), n)
		}
		for _, ev := range events {
			wantLen := 2
			if ev.Name == "instantctx" {
				wantLen = 1
			}
			if len(ev.Args) != wantLen || ev.Args[0] != (Arg{Key: "i", Val: ev.ID}) ||
				wantLen == 2 && ev.Args[1] != (Arg{Key: "kind", Val: ev.Name}) {
				t.Fatalf("%s: event %s %s carries args %v", who, ev.Name, ev.ID, ev.Args)
			}
		}
	}
	check("the tap", tap.seen)
	check("Events()", tr.Events())
}
