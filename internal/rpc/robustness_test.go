package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
	"cogrid/internal/wire"
)

// Garbage on the wire — a frame that starts with '{' is garbage like any
// other — is counted and skipped; a well-formed call with no method or id
// reaches the handler, which refuses it, and the reply without an id is
// dropped by the client. The connection serves on through all of it.
func TestMalformedFramesIgnored(t *testing.T) {
	sim, _, ctrs, a, b := newTracedPair(t)
	startEcho(t, sim, b)
	err := sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		// Splice garbage onto the wire before real traffic.
		conn.Send([]byte("not a frame at all"))
		conn.Send([]byte(`{"kind":"call","id":9,"method":"echo"}`))
		conn.Send(frame(wire.Envelope{Kind: wire.KindCall}))
		c := NewClient(sim, conn)
		var reply echoReply
		if err := c.Call("echo", echoArgs{Text: "still works"}, &reply, time.Minute); err != nil {
			t.Errorf("Call after garbage: %v", err)
			return
		}
		if reply.Text != "still works" {
			t.Errorf("reply = %q", reply.Text)
		}
		c.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for _, want := range []struct {
		verb, outcome, host string
		n                   int64
	}{
		{"frame", "decode-error", "b", 2},
		{"serve", "error", "b", 1}, // the call with no method
		{"reply", "drop", "a", 1},  // its reply, which has no id
		{"serve", "ok", "b", 1},
		{"call", "ok", "a", 1},
	} {
		if got := ctrs.Get(trace.Key("rpc", want.verb, want.outcome, want.host)); got != want.n {
			t.Errorf("rpc.%s.%s@%s = %d, want %d", want.verb, want.outcome, want.host, got, want.n)
		}
	}
}

func TestCallAfterCloseFails(t *testing.T) {
	sim, a, b := newPair(t)
	startEcho(t, sim, b)
	err := sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		c.Close()
		sim.Sleep(10 * time.Millisecond) // let the demux observe the close
		if err := c.Call("echo", echoArgs{Text: "x"}, nil, time.Minute); err != ErrClosed {
			t.Errorf("Call after Close = %v, want ErrClosed", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestUnknownMethodViaHandlerFuncsNil(t *testing.T) {
	sim, a, b := newPair(t)
	l, err := b.Listen("empty")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	Serve(sim, l, HandlerFuncs{}, nil) // no Call func at all
	err = sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "empty"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		err = c.Call("anything", nil, nil, time.Minute)
		if _, ok := err.(RemoteError); !ok {
			t.Errorf("Call = %v, want RemoteError", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestServerPushAfterClientGoneIsHarmless(t *testing.T) {
	sim, a, b := newPair(t)
	l, err := b.Listen("pusher")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	pushed := vtime.NewChan[error](sim, "pushed", 1)
	Serve(sim, l, HandlerFuncs{
		Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) {
			// Push long after the client hung up.
			sim.GoDaemon("push", func() {
				sim.Sleep(5 * time.Second)
				pushed.Send(sc.NotifyCtx(trace.Ctx{}, "late", nil))
			})
			return nil, nil
		},
	}, nil)
	err = sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "pusher"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		if err := c.Call("poke", nil, nil, time.Minute); err != nil {
			t.Errorf("poke: %v", err)
		}
		sim.Sleep(time.Second)
		c.Close()
		// The server's late push must not panic or wedge anything; it may
		// error or be dropped.
		if _, res := pushed.RecvTimeout(time.Minute); res != vtime.RecvOK {
			t.Errorf("server never finished its late push: %v", res)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// A client that does not drain its notifications loses the ones that do not
// fit — it is never blocked by them — and every loss is on the record: what
// the server sent is what the client queued plus what it counted dropped,
// and each drop has its trace instant.
func TestNotificationBufferOverflowDropsNotBlocks(t *testing.T) {
	sim, tr, ctrs, a, b := newTracedPair(t)
	l, err := b.Listen("flood")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	const flood = 1000 // past the client's 256 buffer
	Serve(sim, l, HandlerFuncs{
		Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) {
			for i := 0; i < flood; i++ {
				sc.NotifyCtx(trace.Ctx{}, "spam", nil)
			}
			return nil, nil
		},
	}, nil)
	err = sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "flood"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		if err := c.Call("go", nil, nil, time.Minute); err != nil {
			t.Errorf("go: %v", err)
		}
		sim.Sleep(time.Second)
		// The client is alive despite the flood; drain what was kept.
		kept := 0
		for {
			if _, ok := c.Notifications().TryRecv(); !ok {
				break
			}
			kept++
		}
		if kept == 0 || kept > 256 {
			t.Errorf("kept %d notifications, want (0,256]", kept)
		}
		sent := ctrs.Get(trace.Key("rpc", "notify", "send", "b"))
		recvd := ctrs.Get(trace.Key("rpc", "notify", "recv", "a"))
		dropped := ctrs.Get(trace.Key("rpc", "notify", "drop", "a"))
		if sent != flood || recvd != int64(kept) || sent != recvd+dropped {
			t.Errorf("sent %d, received %d (drained %d), dropped %d: a notification is unaccounted for", sent, recvd, kept, dropped)
		}
		instants := int64(0)
		for _, ev := range tr.Events() {
			if ev.Cat == "rpc" && ev.Name == "dropped-notify" {
				instants++
			}
		}
		if instants != dropped {
			t.Errorf("%d dropped-notify instants for %d drops", instants, dropped)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// When a client loses its connection with several calls in flight, the
// callers resume in the order they called — a function of the seed — not in
// the order a Go map happens to yield their reply channels.
func TestShutdownWakesCallersInCallOrder(t *testing.T) {
	const callers = 8
	for run := 0; run < 20; run++ {
		sim, a, b := newPair(t)
		startEcho(t, sim, b)
		var resumed []int
		err := sim.Run("client", func() {
			conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			c := NewClient(sim, conn)
			for i := 0; i < callers; i++ {
				sim.Go("caller", func() {
					sim.Sleep(time.Duration(i) * time.Microsecond) // call ids ascend with i
					// The server sits on the first call for an hour; nothing is answered.
					err := c.Call("echo", echoArgs{Text: "x", Delay: 3_600_000}, nil, 2*time.Hour)
					if err != ErrClosed {
						t.Errorf("caller %d: Call = %v, want ErrClosed", i, err)
					}
					resumed = append(resumed, i)
				})
			}
			sim.Sleep(time.Second)
			b.Crash()
			sim.Sleep(time.Second)
		})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		for i, got := range resumed {
			if got != i || len(resumed) != callers {
				t.Fatalf("run %d: callers resumed in order %v, want call order", run, resumed)
			}
		}
		if len(resumed) != callers {
			t.Fatalf("run %d: %d of %d callers resumed", run, len(resumed), callers)
		}
	}
}

// releaseReply is a typed reply whose end every receiver of one release is
// sent alike, as the barrier's check-in reply is: its rank, then a shared
// address book.
type releaseReply struct {
	Rank   int
	Book   wire.StringList
	shared *wire.Shared
}

func (r releaseReply) AppendWireShared(dst []byte) ([]byte, *wire.Shared) {
	return wire.AppendVarint(dst, int64(r.Rank)), r.shared
}

func (r *releaseReply) ParseWire(head, shared []byte) error {
	rd := wire.NewReader(head, shared)
	r.Rank, r.Book = rd.Int(), rd.StringList()
	return rd.Done()
}

// A shared body is checked by every receiver, over every byte of its
// frame. Four ranks are released with frames that share one address book;
// one rank's copy of the book is corrupted in flight. That rank's client
// drops its reply, counts one decode error and times out, and the other
// three read theirs, each list a view of the one book that was sent.
func TestCorruptSharedBodyDropsOnlyItsReply(t *testing.T) {
	const ranks, corrupt = 4, 2
	sim, _, ctrs, a, b := newTracedPair(t)
	e := &contractEnv{t: t, sim: sim, ctrs: ctrs, a: a, b: b}
	book := wire.AppendStrings(nil, []string{"a:app.0", "a:app.1", "a:app.2", "a:app.3"})
	good := wire.NewShared(book)
	// The corrupted rank is sent a copy of the book, checksummed as it was
	// sent and changed once it is on its way.
	copied := bytes.Clone(book)
	bad := wire.NewShared(copied)
	calls := make([]*Call, ranks)
	arrived := 0
	e.serve(callFunc(func(call *Call, method string, body json.RawMessage) {
		var rank int
		if err := Decode(body, &rank); err != nil {
			t.Errorf("check-in body: %v", err)
		}
		calls[rank] = call
		if arrived++; arrived < ranks {
			return
		}
		for rank, call := range calls {
			sh := &good
			if rank == corrupt {
				sh = &bad
			}
			call.Reply(releaseReply{Rank: rank, shared: sh}, nil)
		}
		copied[len(copied)/2] ^= 0x20
	}))
	replies := make([]releaseReply, ranks)
	errs := make([]error, ranks)
	err := sim.Run("ranks", func() {
		wg := vtime.NewWaitGroup(sim)
		wg.Add(ranks)
		for rank := 0; rank < ranks; rank++ {
			sim.Go(fmt.Sprintf("rank%d", rank), func() {
				defer wg.Done()
				errs[rank] = e.dial().Call("checkin", rank, &replies[rank], time.Second)
			})
		}
		wg.Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for rank, err := range errs {
		if rank == corrupt {
			if err != ErrTimeout {
				t.Errorf("rank %d, sent a corrupt book: %v, want ErrTimeout", rank, err)
			}
			continue
		}
		r := replies[rank]
		if err != nil || r.Rank != rank || len(r.Book) != len(book) || &r.Book[0] != &book[0] {
			t.Errorf("rank %d: %v, rank %d, book %q; want its rank and a view of the book sent", rank, err, r.Rank, r.Book.All())
		}
	}
	if got := e.counter("frame", "decode-error", "a"); got != 1 {
		t.Errorf("rpc.frame.decode-error@a = %d, want 1", got)
	}
}
