package transport

import (
	"testing"
	"time"
	"unsafe"

	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// observedEcho is a two-host network with a tracer, counters and
// histograms attached and an echo server on b that serves one connection at
// a time. body runs as the client process.
func observedEcho(tb testing.TB, body func(sim *vtime.Sim, a *Host)) (*trace.Tracer, *trace.Counters) {
	tb.Helper()
	sim := vtime.New()
	net := New(sim, UniformLatency(time.Millisecond))
	a, b := net.AddHost("a"), net.AddHost("b")
	tr, ctrs := trace.New(sim), trace.NewCounters()
	net.SetTracer(tr)
	net.SetCounters(ctrs)
	net.SetHists(metrics.NewHistogramSet())
	l, err := b.Listen("echo")
	if err != nil {
		tb.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() {
		for {
			conn, ok := l.Accept()
			if !ok {
				return
			}
			for {
				msg, err := conn.Recv()
				if err != nil {
					break
				}
				conn.Send(msg)
			}
			conn.Close()
		}
	})
	if err := sim.Run("client", func() { body(sim, a) }); err != nil {
		tb.Fatalf("sim: %v", err)
	}
	return tr, ctrs
}

// What observing a connection costs in allocations, with a tracer, a counter
// registry and histograms attached. The numbers are the whole program's —
// client, server, kernel — per operation.
func TestObservedConnectionAllocs(t *testing.T) {
	var dialClose, roundTrip float64
	ctx := trace.NewRequest("r1")
	tr, ctrs := observedEcho(t, func(sim *vtime.Sim, a *Host) {
		// Dial and close: the pair, its two ends' counters (one allocation, and
		// two slice appends in the registry), the dial span's context, the
		// client end's names for that span (one string, one struct) and the
		// delivery queue the FIN goes into. It was 47: each end concatenated
		// its directional name and from it five counter names, two allocations
		// apiece, and registered five separately allocated counters in the
		// registry's map; the flow was hashed through a hash.Hash32.
		dialClose = testing.AllocsPerRun(200, func() {
			conn, err := a.DialCtx(Addr{"b", "echo"}, ctx)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			conn.Close()
			sim.Sleep(10 * time.Millisecond)
		})
		// One request and its echo on an established connection: two payload
		// copies and two hop contexts (strconv has the "bytes" string of a
		// payload this small ready-made). It was 10: each hop's and each
		// delivery's variadic args slice escaped into its event (4), and each
		// hop rendered the peer's address for its "to" argument (2).
		conn, err := a.DialCtx(Addr{"b", "echo"}, ctx)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		conn.Send([]byte("warm")) // builds both ends' names, resolves the hosts' counters
		conn.Recv()
		roundTrip = testing.AllocsPerRun(200, func() {
			conn.Send([]byte("ping"))
			if _, err := conn.Recv(); err != nil {
				t.Fatalf("Recv: %v", err)
			}
		})
		conn.Close()
	})
	t.Logf("dial+close %.0f allocs, request/reply %.0f allocs, %d events, %d counter lines",
		dialClose, roundTrip, tr.Len(), len(ctrs.Snapshot()))
	if dialClose > 6 {
		t.Errorf("dial + close with observers attached: %.0f allocations, want <= 6", dialClose)
	}
	if roundTrip > 4 {
		t.Errorf("traced, counted request/reply: %.0f allocations, want <= 4", roundTrip)
	}
}

// TestUntracedFailedDialBuildsNothing: a dial that makes no connection used
// to build its span's context and render the address it dialed before the
// nil-safe tracer call that threw them away; a refused dial on a network
// nobody observes allocates nothing now, and the traced one says what it did.
func TestUntracedFailedDialBuildsNothing(t *testing.T) {
	sim, net, a, _ := testNet(t)
	ctx := trace.NewRequest("r1").Child("submit")
	err := sim.Run("main", func() {
		refused := func() {
			if _, err := a.DialCtx(Addr{"b", "nobody-listens"}, ctx); err != ErrRefused {
				t.Fatalf("Dial = %v, want ErrRefused", err)
			}
		}
		for i := 0; i < 1000; i++ { // the kernel's timer entries exist, and the wheel's slots the clock passes
			refused()
		}
		if allocs := testing.AllocsPerRun(100, refused); allocs != 0 {
			t.Errorf("a refused dial on an untraced network allocated %v times, want 0", allocs)
		}
		tr := trace.New(sim)
		net.SetTracer(tr)
		refused()
		evs := tr.Events()
		if len(evs) != 1 || evs[0].Name != "dial" || evs[0].Thr != "b:nobody-listens" || evs[0].Span != "req/submit/dial" ||
			len(evs[0].Args) != 1 || evs[0].Args[0].Val != "refused" {
			t.Errorf("the same dial with a tracer attached emitted %+v", evs)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestConnSize pins what every connection end costs before it has sent
// anything: a pair is one allocation of two of these.
func TestConnSize(t *testing.T) {
	if size := unsafe.Sizeof(Conn{}); size > 512 {
		t.Errorf("Conn is %d bytes, want <= 512", size)
	}
}

// BenchmarkTracedDialRoundTripClose is a short connection's whole life with
// every observer attached: dial, one request and its echo, close.
func BenchmarkTracedDialRoundTripClose(b *testing.B) {
	b.ReportAllocs()
	ctx := trace.NewRequest("r1")
	observedEcho(b, func(sim *vtime.Sim, a *Host) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conn, err := a.DialCtx(Addr{"b", "echo"}, ctx)
			if err != nil {
				b.Fatalf("Dial: %v", err)
			}
			conn.Send([]byte("ping"))
			if _, err := conn.Recv(); err != nil {
				b.Fatalf("Recv: %v", err)
			}
			conn.Close()
			sim.Sleep(10 * time.Millisecond)
		}
		b.StopTimer()
	})
}
