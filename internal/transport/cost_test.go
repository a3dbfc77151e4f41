package transport

import (
	"math"
	"runtime"
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
		// Dial and close: the two identities (the pipe is lent by the
		// network), their counters (one allocation, and two slice appends in
		// the registry) and the pair's names for the dial span (one string,
		// one two-entry struct); the FIN goes into the pipeline's first slot,
		// in the pipe, and the span's context comes
		// from the tracer's string table. It was 5 while the FIN grew a queue
		// of its own, and 47 before that: each end concatenated
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
		// copies. The hop contexts and the "bytes" strings come from the
		// tracer's string table. It was 10: each hop's and each delivery's
		// variadic args slice escaped into its event (4), each hop rendered
		// the peer's address for its "to" argument (2), and each hop built
		// its context (2).
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
	if dialClose > 4 {
		t.Errorf("dial + close with observers attached: %.0f allocations, want <= 4", dialClose)
	}
	if roundTrip > 2 {
		t.Errorf("traced, counted request/reply: %.0f allocations, want <= 2", roundTrip)
	}
}

// TestUntracedFailedDialBuildsNothing: a dial that makes no connection used
// to build its span's context and render the address it dialed before the
// nil-safe tracer call that threw them away; a refused dial on a network
// nobody observes allocates nothing now, and the traced one says what it did.
func TestUntracedFailedDialBuildsNothing(t *testing.T) {
	sim, net, a, _ := testNet(t)
	ctx := trace.Ctx{Req: "r1", Span: "req/submit"}
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

// TestConnSize pins what a connection costs. Its two identities are one
// allocation per dial, in the 384-byte size class; its pipe — both ends'
// inboxes, delivery pipelines and their first slots — is lent by the
// network, and is allocated, with the identities of the dial that found the
// free list empty, only as many times as connections are open at once: that
// block stays in the 1 536-byte class, as the whole pair did when each dial
// allocated one (1 472 bytes, of 480-byte ends).
func TestConnSize(t *testing.T) {
	if size := unsafe.Sizeof([2]Conn{}); size > 384 {
		t.Errorf("a connection's two identities are %d bytes, want <= 384", size)
	}
	if size := unsafe.Sizeof([2]pipeEnd{}); size > 1168 {
		t.Errorf("a pipe is %d bytes, want <= 1168", size)
	}
	if size := unsafe.Sizeof(freshConn{}); size > 1536 {
		t.Errorf("a dial's identities and a new pipe are %d bytes, want <= 1536", size)
	}
}

// TestWarmExchangeBytes pins a short connection's whole life once the
// network has a pipe to lend: dial, one message and its echo, close, on an
// unobserved network. It allocates the two identities and the two payload
// copies. The least of three windows is held to the bound: a window can take
// in what the runtime allocates for itself (an OS thread as it restarts the
// world after ReadMemStats, 5 288 bytes; see flightrec's
// TestSkippedTriggerCopiesNothing).
func TestWarmExchangeBytes(t *testing.T) {
	sim, _, a, b := testNet(t)
	l, err := b.Listen("echo")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() { // one connection at a time, as observedEcho's
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
	err = sim.Run("client", func() {
		msg := []byte("ping")
		exchange := func() {
			conn, err := a.Dial(Addr{"b", "echo"})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			conn.Send(msg)
			if reply, err := conn.Recv(); err != nil || string(reply) != "ping" {
				t.Fatalf("echo = %q, %v", reply, err)
			}
			conn.Close()
			sim.Sleep(5 * time.Millisecond) // the FIN lands; the pipe goes back
		}
		for i := 0; i < 10; i++ { // a pipe on the free list, timer entries, the run queue
			exchange()
		}
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			exchange()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("warm dial + exchange + close: %d bytes", least)
		if least > 448 { // 424 (-race 440): the identities, two 8-byte payloads and 24 bytes the same exchange spent when each dial allocated its pipe too, 1 576 then
			t.Errorf("warm dial + exchange + close allocated %d bytes, want <= 448", least)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestQueuedMessageSize pins what a message costs while it waits: a slot of
// the peer's inbox ring and an entry of the delivery pipeline are as large
// as they were when a message was one slice, though it may now come in two
// parts.
func TestQueuedMessageSize(t *testing.T) {
	if size := unsafe.Sizeof(msg{}); size > 24 {
		t.Errorf("msg is %d bytes, want <= 24", size)
	}
	if size := unsafe.Sizeof(outMsg{}); size > 80 {
		t.Errorf("outMsg is %d bytes, want <= 80", size)
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

// TestEncodeBufferFreeList: the buffers a Network lends come back empty and
// are lent again, last returned first, so a frame's body and head reuse the
// same two; one grown past 64 KiB is not kept.
func TestEncodeBufferFreeList(t *testing.T) {
	n := New(vtime.New(), UniformLatency(0))
	body, head := n.GetBuf(), n.GetBuf()
	*body = append(*body, "body"...)
	*head = append(*head, "head"...)
	n.PutBuf(head)
	n.PutBuf(body)
	if b, h := n.GetBuf(), n.GetBuf(); b != body || h != head || len(*b) != 0 || len(*h) != 0 {
		t.Errorf("lent again %p and %p (len %d, %d), want %p and %p emptied", b, h, len(*b), len(*h), body, head)
	}
	huge := make([]byte, 0, 1<<16+1)
	n.PutBuf(&huge)
	if b := n.GetBuf(); b == &huge {
		t.Error("a buffer past 64 KiB was kept")
	}
	if allocs := testing.AllocsPerRun(100, func() { n.PutBuf(n.GetBuf()) }); allocs != 0 {
		t.Errorf("a lent and returned buffer allocates %v times, want 0", allocs)
	}
}
