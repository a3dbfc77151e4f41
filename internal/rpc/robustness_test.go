package rpc

import (
	"encoding/json"
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
		if err := c.Notify("poke", nil); err != ErrClosed {
			t.Errorf("Notify after Close = %v, want ErrClosed", err)
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
		NotifyFunc: func(sc *ServerConn, method string, body json.RawMessage) {
			// Reply long after the client hung up.
			sim.Sleep(5 * time.Second)
			pushed.Send(sc.Notify("late", nil))
		},
	}, nil)
	err = sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "pusher"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		c.Notify("poke", nil)
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
		NotifyFunc: func(sc *ServerConn, method string, body json.RawMessage) {
			for i := 0; i < flood; i++ {
				sc.Notify("spam", nil)
			}
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
		c.Notify("go", nil)
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
