package flightrec

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// record runs one deterministic-under-race workload: procs concurrent
// simulated processes all emitting into category "cat" (plus a second
// category) at every whole second up to instants, then triggers a dump at
// the final instant + 1s. Within each instant the real-time arrival order
// of events is racy; the dump must not depend on it. Process 0 also takes
// a snapshot at every instant, between other processes' records, and each
// must be valid.
func raceDump(t *testing.T, seed int64, procs, instants, ringCap int) []byte {
	t.Helper()
	sim := vtime.NewSeeded(seed)
	tr := trace.New(sim)
	rec := New(sim, Options{RingCap: ringCap})
	tr.SetTap(rec)
	err := sim.Run("main", func() {
		wg := vtime.NewWaitGroup(sim)
		wg.Add(procs)
		for p := 0; p < procs; p++ {
			p := p
			sim.Go(fmt.Sprintf("proc%d", p), func() {
				defer wg.Done()
				for i := 1; i <= instants; i++ {
					sim.SleepUntil(time.Duration(i) * time.Second)
					tr.Instant("cat", fmt.Sprintf("ev-%02d-%02d", i, p), "host", "thr", "")
					if p == 0 {
						tr.Instant("other", fmt.Sprintf("o-%02d", i), "host", "thr", "")
						if err := Validate(rec.Snapshot(sim.Now())); err != nil {
							t.Errorf("snapshot at %v: %v", sim.Now(), err)
						}
					}
				}
			})
		}
		wg.Wait()
		sim.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	d := rec.Trigger("test", "race")
	if v := Validate(d.Events); v != nil {
		t.Fatalf("dump invalid: %v", v)
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, d); err != nil {
		t.Fatalf("write dump: %v", err)
	}
	if rec.Overflows() != 0 {
		t.Fatalf("unexpected entry-granular overflow: %d", rec.Overflows())
	}
	return buf.Bytes()
}

func TestDumpDeterministicUnderInstantRaces(t *testing.T) {
	// 8 procs per instant, ring of 16: every snapshot must trim older
	// instants at whole-instant granularity, and two identical runs must
	// serialize byte-identically despite racy same-instant arrival.
	a := raceDump(t, 7, 8, 20, 16)
	b := raceDump(t, 7, 8, 20, 16)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed dumps differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestWholeInstantRetention(t *testing.T) {
	sim := vtime.NewSeeded(1)
	rec := New(sim, Options{RingCap: 10})
	err := sim.Run("main", func() {
		// 4 events per instant over 10 instants: capacity 10 holds at most
		// two whole instants (8 events); a third would make 12 > 10.
		for i := 1; i <= 10; i++ {
			sim.SleepUntil(time.Duration(i) * time.Second)
			for k := 0; k < 4; k++ {
				rec.Record(trace.Event{At: sim.Now(), Cat: "c", Name: fmt.Sprintf("e%d-%d", i, k)})
			}
		}
		sim.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	events := rec.Snapshot(sim.Now())
	if len(events) != 8 {
		t.Fatalf("want 2 whole instants (8 events), got %d: %+v", len(events), events)
	}
	for _, ev := range events {
		if ev.At < 9*time.Second {
			t.Fatalf("stale instant survived: %+v", ev)
		}
	}
}

func TestSnapshotExcludesTriggerInstant(t *testing.T) {
	sim := vtime.NewSeeded(1)
	rec := New(sim, Options{RingCap: 64})
	err := sim.Run("main", func() {
		sim.SleepUntil(time.Second)
		rec.Record(trace.Event{At: sim.Now(), Cat: "c", Name: "before"})
		sim.SleepUntil(2 * time.Second)
		rec.Record(trace.Event{At: sim.Now(), Cat: "c", Name: "same-instant"})
		// A trigger fired at t=2s races with "same-instant": the dump must
		// contain only history strictly before the trigger instant.
		if got := rec.Snapshot(sim.Now()); len(got) != 1 || got[0].Name != "before" {
			panic(fmt.Sprintf("snapshot at trigger instant: %+v", got))
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	sim := vtime.NewSeeded(1)
	rec := New(sim, Options{})
	err := sim.Run("main", func() {
		sim.SleepUntil(time.Second)
		rec.Record(trace.Event{At: sim.Now(), Cat: "broker", Name: "enqueue", Proc: "broker0",
			Req: "r1", Span: "req", Args: []trace.Arg{{Key: "k", Val: "v"}}})
		rec.Record(trace.Event{At: sim.Now(), Cat: "transport", Name: "drop", Proc: "m1"})
		sim.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	d := rec.Trigger("watchdog-abort", "broker0 b#1")
	var buf bytes.Buffer
	if err := WriteDump(&buf, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Trigger != d.Trigger || got.Detail != d.Detail || got.At != d.At {
		t.Fatalf("header mismatch: %+v vs %+v", got, d)
	}
	if len(got.Events) != len(d.Events) {
		t.Fatalf("events: got %d want %d", len(got.Events), len(d.Events))
	}
	if err := Validate(got.Events); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if got.Kind() != "watchdog-abort" {
		t.Fatalf("kind: %q", got.Kind())
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{"out-of-order", []trace.Event{
			{At: 2 * time.Second, Cat: "c", Name: "b"},
			{At: time.Second, Cat: "c", Name: "a"},
		}, "out of deterministic trace order"},
		{"negative-duration", []trace.Event{{At: time.Second, Dur: -1, Cat: "c", Name: "a"}}, "negative duration"},
		{"empty-category", []trace.Event{{At: time.Second, Name: "a"}}, "empty category"},
		{"empty-name", []trace.Event{{At: time.Second, Cat: "c"}}, "empty name"},
		{"span-without-req", []trace.Event{{At: time.Second, Cat: "c", Name: "a", Span: "req/x"}}, "without request id"},
	}
	for _, tc := range cases {
		err := Validate(tc.events)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := Validate(nil); err != nil {
		t.Errorf("empty dump should validate: %v", err)
	}
}

func TestMaxDumpsAndCounters(t *testing.T) {
	sim := vtime.NewSeeded(1)
	ctrs := trace.NewCounters()
	rec := New(sim, Options{})
	rec.SetCounters(ctrs)
	rec.Trigger("slo:rule-a", "first")
	for i := 0; i < maxDumps; i++ {
		rec.Trigger("orphan", fmt.Sprint(i))
	}
	if got := len(rec.Dumps()); got != maxDumps {
		t.Fatalf("dumps: got %d want %d", got, maxDumps)
	}
	if rec.Skipped() != 1 {
		t.Fatalf("skipped: got %d want 1", rec.Skipped())
	}
	if got := ctrs.Get("flightrec.dump.slo"); got != 1 {
		t.Fatalf("slo dump counter: %d", got)
	}
	if got := ctrs.Get("flightrec.dump.orphan"); got != maxDumps-1 {
		t.Fatalf("orphan dump counter: %d", got)
	}
	if got := ctrs.Get("flightrec.dump.skip"); got != 1 {
		t.Fatalf("skip counter: %d", got)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var rec *Recorder
	rec.Record(trace.Event{Cat: "c", Name: "n"})
	rec.Trigger("x", "y")
	if rec.Dumps() != nil || rec.Snapshot(time.Second) != nil || rec.Skipped() != 0 || rec.Overflows() != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

// The tap half of trace's TestEmitCopiesArgs: the tracer hands a tap one
// args buffer it refills for every event, and an emitter may rewrite its
// own slice once the call returns. A dump taken after both still carries
// what each event was emitted with, for events of more args than a slot
// holds without growing too.
func TestDumpKeepsArgsTheEmitterReused(t *testing.T) {
	sim := vtime.NewSeeded(1)
	tr := trace.New(sim)
	rec := New(sim, Options{RingCap: 8})
	tr.SetTap(rec)
	err := sim.Run("main", func() {
		args := []trace.Arg{{Key: "k", Val: "first"}, {Key: "k2", Val: "first"}, {Key: "k3", Val: "first"}}
		sim.SleepUntil(time.Second)
		tr.Emit(trace.Event{At: sim.Now(), Cat: "c", Name: "emit", Args: args})
		tr.Instant("c", "instant", "p", "t", "", args[:1]...)
		args[0].Val, args[1].Val, args[2].Val = "overwritten", "overwritten", "overwritten"
		for i := 0; i < 20; i++ { // the tracer refills its tap buffer
			tr.Instant("other", "filler", "p", "t", "", trace.Arg{Key: "i", Val: fmt.Sprint(i)}, args[0])
		}
		sim.SleepUntil(2 * time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	d := rec.Trigger("test", "args")
	var got []string
	for _, ev := range d.Events {
		if ev.Cat != "c" {
			continue
		}
		for _, a := range ev.Args {
			got = append(got, ev.Name+" "+a.Key+"="+a.Val)
		}
	}
	if want := "emit k=first emit k2=first emit k3=first instant k=first"; strings.Join(got, " ") != want {
		t.Errorf("dump carries %q, want %q", strings.Join(got, " "), want)
	}
}

// TestRecordAllocs pins the allocation-free record path: after a
// component's ring exists, Record never allocates.
func TestRecordAllocs(t *testing.T) {
	sim := vtime.NewSeeded(1)
	rec := New(sim, Options{RingCap: 64})
	ev := trace.Event{At: 0, Cat: "bench", Name: "ev", Proc: "p", Thr: "t"}
	rec.Record(ev) // create the ring outside the measured region
	if avg := testing.AllocsPerRun(1000, func() { rec.Record(ev) }); avg != 0 {
		t.Fatalf("Record allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkRecord is the satellite's testing.B proof: steady-state record
// is 0 allocs/op.
func BenchmarkRecord(b *testing.B) {
	sim := vtime.NewSeeded(1)
	rec := New(sim, Options{RingCap: 512})
	ev := trace.Event{At: 0, Cat: "bench", Name: "ev", Proc: "p", Thr: "t",
		Args: []trace.Arg{{Key: "k", Val: "v"}}}
	rec.Record(ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(ev)
	}
}

// A trigger beyond maxDumps is counted and copies nothing: with a full
// 512-event ring, a snapshot would be about 80 KB the recorder then drops.
// Each of three skipped triggers is measured on its own and the least is
// held to the bound, because a window can take in what the runtime itself
// allocates: restarting the world after a stop (ReadMemStats makes one), it
// now and then starts an OS thread, whose m, g0 and signal goroutine and two
// profiling stacks are 5 288 bytes in 7 objects on the heap (about 1 window
// in 1 500; a memory profile at rate 1 of this test in a loop names
// runtime.allocm under startTheWorldWithSema and nothing of the recorder's).
func TestSkippedTriggerCopiesNothing(t *testing.T) {
	sim := vtime.NewSeeded(1)
	ctrs := trace.NewCounters()
	rec := New(sim, Options{})
	rec.SetCounters(ctrs)
	err := sim.Run("main", func() {
		for i := 1; i <= 600; i++ {
			sim.SleepUntil(time.Duration(i) * time.Millisecond)
			rec.Record(trace.Event{At: sim.Now(), Cat: "c", Name: "e", Args: []trace.Arg{{Key: "i", Val: "v"}}})
		}
		sim.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i := 0; i < maxDumps; i++ {
		if d := rec.Trigger("orphan", fmt.Sprint(i)); len(d.Events) != 512 {
			t.Fatalf("kept dump %d holds %d events, want 512", i, len(d.Events))
		}
	}
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := rec.Trigger("orphan", "last")
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if d.Events != nil || d.At != sim.Now() || d.Trigger != "orphan" || d.Detail != "last" {
			t.Errorf("skipped trigger returned At %v, Trigger %q, Detail %q and %d events, want At, Trigger and Detail and no events",
				d.At, d.Trigger, d.Detail, len(d.Events))
		}
	}
	if least >= 1<<10 {
		t.Errorf("a skipped trigger allocated %d bytes, want under 1 KB", least)
	}
	if rec.Skipped() != 3 || ctrs.Get("flightrec.dump.skip") != 3 || len(rec.Dumps()) != maxDumps {
		t.Errorf("skipped %d, skip counter %d, dumps %d; want 3, 3, %d", rec.Skipped(), ctrs.Get("flightrec.dump.skip"), len(rec.Dumps()), maxDumps)
	}
}
