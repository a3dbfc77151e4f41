package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cogrid/internal/vtime"
)

// scopeName is a member's scope in the tests: a string that renders itself.
type scopeName string

func (s scopeName) AppendScope(dst []byte) []byte { return append(dst, s...) }

// TestFamilySnapshotEqualsEagerRegistry builds the same counts twice, once
// the way every counter used to be registered — C(Key(...)), one name, one
// map entry and one Counter each — and once through families, and requires
// the two registries to be indistinguishable to a reader — also while
// members are still joining: every 50th member is followed by a snapshot,
// which must be sorted, name nothing twice and hold whole members.
func TestFamilySnapshotEqualsEagerRegistry(t *testing.T) {
	// Verbs that prefix one another, and one ('-' < '@') that sorts before
	// the verb it extends: run order is by verb+"@", not by verb.
	verbs := []string{"send", "recv", "recvbytes", "recv-x", "drop"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eager, lazy := NewCounters(), NewCounters()
		conn := lazy.Family("transport", "conn", verbs...)
		other := lazy.Family("transport", "connx", "a", "b")
		lazy.Family("transport", "never", "used") // an empty family prints nothing
		if again := lazy.Family("transport", "conn"); again != conn {
			t.Fatal("a second Family call for the same layer.object made a second family")
		}

		// Plain counters: outside the families' range, inside it, between two
		// runs, and one spelled exactly like a member's name.
		plain := []string{
			"rpc.call.ok@m1", "transport.bytes.send@m1", "transport.msgs.send@m1", "zz.top",
			"transport.conn.recv", "transport.conn.recv@", "transport.conn.recv@zzzz", "transport.conn.recv.x@s1",
			"transport.conn.recva@s1", "transport.conn.send@s0->s1@17", "transport.connx.a@s1", "transport.conn",
		}
		for _, name := range plain {
			v := rng.Int63n(100)
			eager.Add(name, v)
			lazy.Add(name, v)
		}

		// Members, many of them under a scope another member already has, one
		// with the empty scope (Key writes no "@" for it).
		scopes := []string{"", "s0->s1@17", "s1"} // the first three members take these
		for i := 0; i < 40; i++ {
			scopes = append(scopes, fmt.Sprintf("s%d->s%d@%d", rng.Intn(3), rng.Intn(3), rng.Intn(20)))
		}
		var names []string
		for i := 0; i < 200; i++ {
			fam, famVerbs, object := conn, verbs, "conn"
			if i%10 == 2 {
				fam, famVerbs, object = other, []string{"a", "b"}, "connx"
			}
			scope := scopes[rng.Intn(len(scopes))]
			if i < 3 {
				scope = scopes[i]
			}
			ctrs := make([]Counter, len(famVerbs))
			fam.Member(scopeName(scope), ctrs)
			for v, verb := range famVerbs {
				name := Key("transport", object, verb, scope)
				names = append(names, name)
				h := eager.C(name) // exists at 0 from registration
				if d := rng.Int63n(4); d > 0 {
					h.Add(d)
					ctrs[v].Add(d)
				}
			}
			if i%50 == 49 {
				if got, want := lazy.Snapshot(), eager.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: snapshots differ after %d members", seed, i+1)
				}
			}
		}

		got, want := lazy.Snapshot(), eager.Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: snapshots differ:\nfamilies:\n%seager:\n%s", seed, lazy, eager)
		}
		if lazy.String() != eager.String() {
			t.Fatalf("seed %d: String differs", seed)
		}
		for _, name := range append(names, append(plain, "transport.conn.send@nobody", "transport.conn.nosuchverb@s1", "other")...) {
			if g, w := lazy.Get(name), eager.Get(name); g != w {
				t.Fatalf("seed %d: Get(%q) = %d through families, %d eagerly", seed, name, g, w)
			}
		}
	}

	var none *Counters
	fam := none.Family("transport", "conn", verbs...)
	fam.Member(scopeName("x"), make([]Counter, len(verbs))) // no-ops, both
	if fam != nil || none.Snapshot() != nil {
		t.Error("a nil registry handed out a family or a snapshot")
	}
}

func TestFamilyRejectsAmbiguousVerbs(t *testing.T) {
	for _, c := range []struct {
		layer string
		verbs []string
	}{{"l", []string{"a", "a"}}, {"l", []string{"a@b"}}, {"l@x", []string{"a"}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Family(%q, \"o\", %q) did not panic", c.layer, c.verbs)
				}
			}()
			NewCounters().Family(c.layer, "o", c.verbs...)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("a member with the wrong number of counters did not panic")
		}
	}()
	NewCounters().Family("l", "o", "a", "b").Member(scopeName("s"), make([]Counter, 1))
}

// Emit copies too: an emitter that builds the Event itself and then reuses
// its args slice does not rewrite history. (On the tracer that kept the
// caller's slice, both the retained tap event and Events() showed the
// overwritten value. The tap half is flightrec's
// TestDumpKeepsArgsTheEmitterReused.)
func TestEmitCopiesArgs(t *testing.T) {
	tr := New(vtime.New())
	args := []Arg{{Key: "k", Val: "first"}}
	tr.Emit(Event{Cat: "c", Name: "n", Args: args})
	tr.Instant("c", "n2", "p", "t", "", args...)
	args[0].Val = "overwritten"
	for _, ev := range tr.Events() {
		if len(ev.Args) != 1 || ev.Args[0].Val != "first" {
			t.Errorf("event %s carries args %v after the emitter reused its slice", ev.Name, ev.Args)
		}
	}
	// An event's args are cut to length: appending to them cannot reach the
	// next event's.
	evs := tr.Events()
	_ = append(evs[0].Args, Arg{Key: "x", Val: "y"})
	if got := tr.Events()[1].Args[0]; got != (Arg{Key: "k", Val: "first"}) {
		t.Errorf("appending to one event's args rewrote the next event's: %v", got)
	}
}

// mallocsPer is testing.AllocsPerRun without the rounding down: the average
// number of allocations over n calls of fn, for costs that are a fraction
// of an allocation per call.
func mallocsPer(n int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// What recording one event costs in allocations. Until the tracer kept its
// own copy of the args, a span with two args was 1 allocation at the call
// site — the variadic slice, which escaped into the Event — plus 1/1024 for
// the event chunk. Now the slice stays on the caller's stack and the tracer
// allocates only chunks: one per 1 024 events, one per 1 024 args.
func TestSpanAllocs(t *testing.T) {
	tr := New(vtime.New())
	ctx := Ctx{Req: "r1", Span: "req/hop"}
	got := mallocsPer(100_000, func() {
		tr.SpanAtCtx(ctx, "transport", "hop", "m1", "m1:client->m2:svc@1000", "flow", 0, 1,
			Arg{Key: "bytes", Val: "128"}, Arg{Key: "to", Val: "m2:svc"})
	})
	if got > 0.01 {
		t.Errorf("SpanAtCtx with two args: %.4f allocations per event, want <= 0.01 (chunks only)", got)
	}
	var off *Tracer
	if got := testing.AllocsPerRun(100, func() {
		off.SpanAtCtx(ctx, "transport", "hop", "m1", "thr", "flow", 0, 1, Arg{Key: "bytes", Val: "128"}, Arg{Key: "to", Val: "m2:svc"})
	}); got != 0 {
		t.Errorf("SpanAtCtx on a nil tracer allocated %v times (it was 1: the escaping variadic slice)", got)
	}
}

// BenchmarkCountersSnapshot reads a registry the size broker_open_obs
// leaves behind: 23 400 connection ends in a five-verb family rendering
// 13 000 distinct scopes (65 000 lines) beside 3 000 plain counters.
func BenchmarkCountersSnapshot(b *testing.B) {
	cs := benchRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(cs.Snapshot()); n != 68_000 {
			b.Fatalf("%d lines", n)
		}
	}
}

// benchRegistry is the registry BenchmarkCountersSnapshot reads.
func benchRegistry() *Counters {
	cs := NewCounters()
	fam := cs.Family("transport", "conn", "send", "sendbytes", "recv", "recvbytes", "drop")
	for i := 0; i < 23_400; i++ {
		ctrs := make([]Counter, 5)
		ctrs[0].Add(int64(i))
		s := i % 13_000
		fam.Member(scopeName(fmt.Sprintf("site%02d:client->site%02d:gram@%d", s%24, s%23, 1000+s*37)), ctrs)
	}
	for i := 0; i < 3_000; i++ {
		cs.Add(Key("transport", "msgs", []string{"send", "recv"}[i%2], fmt.Sprintf("host%04d", i/2)), int64(i))
	}
	return cs
}
