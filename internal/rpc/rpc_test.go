package rpc

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
	"cogrid/internal/wire"
)

type echoArgs struct {
	Text  string `json:"text"`
	Delay int    `json:"delay_ms"`
}

type echoReply struct {
	Text string `json:"text"`
}

// startEcho serves echoServer on host b.
func startEcho(t *testing.T, sim *vtime.Sim, host *transport.Host) *Server {
	t.Helper()
	l, err := host.Listen("echo")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	return Serve(sim, l, echoServer{sim}, nil)
}

// echoServer serves an "echo" method with an optional simulated service
// time, plus a "boom" method that always errors and a "poke" method that
// pushes a notification to the client before its reply. An echo with a
// service time waits in mid-call, so it is answered from a process of its
// own.
type echoServer struct{ sim *vtime.Sim }

func (e echoServer) ServeCall(call *Call, method string, body json.RawMessage) {
	switch method {
	case "echo":
		var args echoArgs
		if err := Decode(body, &args); err != nil {
			call.Reply(nil, err)
			return
		}
		replyAfter(e.sim, time.Duration(args.Delay)*time.Millisecond, call, echoReply{Text: args.Text})
	case "boom":
		call.Reply(nil, fmt.Errorf("kaboom"))
	case "poke":
		call.Conn().NotifyCtx(trace.Ctx{}, "poked", echoReply{Text: "back"})
		call.Reply(nil, nil)
	default:
		call.Reply(nil, fmt.Errorf("unknown method %s", method))
	}
}

// replyAfter answers call with result d from now: at once if d is zero,
// else from a process spawned for the call — the shape of every call that
// waits in mid-function.
func replyAfter(sim *vtime.Sim, d time.Duration, call *Call, result any) {
	if d == 0 {
		call.Reply(result, nil)
		return
	}
	sim.GoDaemon("reply-after", func() {
		sim.Sleep(d)
		call.Reply(result, nil)
	})
}

// frame encodes env the way a test puts an envelope on the wire by hand.
// Every frame comes from a fresh Encoder and so carries the prologue, which
// a Decoder validates wherever it appears.
func frame(env wire.Envelope) []byte {
	var enc wire.Encoder
	return enc.Encode(nil, &env)
}

func newPair(t *testing.T) (*vtime.Sim, *transport.Host, *transport.Host) {
	t.Helper()
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	return sim, net.AddHost("a"), net.AddHost("b")
}

func TestCallRoundTrip(t *testing.T) {
	sim, a, b := newPair(t)
	startEcho(t, sim, b)
	err := sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		var reply echoReply
		start := sim.Now()
		if err := c.Call("echo", echoArgs{Text: "hi"}, &reply, time.Minute); err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		if reply.Text != "hi" {
			t.Errorf("reply = %q, want hi", reply.Text)
		}
		if rtt := sim.Now() - start; rtt != 2*time.Millisecond {
			t.Errorf("call RTT = %v, want 2ms", rtt)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCallServiceTimeIncluded(t *testing.T) {
	sim, a, b := newPair(t)
	startEcho(t, sim, b)
	err := sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		start := sim.Now()
		var reply echoReply
		if err := c.Call("echo", echoArgs{Text: "x", Delay: 500}, &reply, time.Minute); err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		if took := sim.Now() - start; took != 502*time.Millisecond {
			t.Errorf("call took %v, want 502ms (2ms RTT + 500ms service)", took)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCallRemoteError(t *testing.T) {
	sim, a, b := newPair(t)
	startEcho(t, sim, b)
	err := sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		err = c.Call("boom", nil, nil, time.Minute)
		re, ok := err.(RemoteError)
		if !ok || re.Error() != "kaboom" {
			t.Errorf("Call err = %v, want RemoteError kaboom", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCallTimeout(t *testing.T) {
	sim, a, b := newPair(t)
	startEcho(t, sim, b)
	err := sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		start := sim.Now()
		err = c.Call("echo", echoArgs{Text: "slow", Delay: 10000}, nil, time.Second)
		if err != ErrTimeout {
			t.Errorf("Call = %v, want ErrTimeout", err)
		}
		if took := sim.Now() - start; took != time.Second {
			t.Errorf("timed out after %v, want 1s", took)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestServerCrashFailsPendingCall(t *testing.T) {
	sim, a, b := newPair(t)
	startEcho(t, sim, b)
	err := sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		sim.AfterFunc(100*time.Millisecond, func() { b.Crash() })
		err = c.Call("echo", echoArgs{Text: "x", Delay: 10000}, nil, time.Hour)
		if err != ErrClosed {
			t.Errorf("Call during crash = %v, want ErrClosed", err)
		}
		if sim.Now() >= time.Hour {
			t.Error("crash was not detected before the timeout")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestServerNotification: a notification the server pushes reaches the
// client's queue with its method and body.
func TestServerNotification(t *testing.T) {
	sim, a, b := newPair(t)
	startEcho(t, sim, b)
	err := sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		if err := c.Call("poke", nil, nil, time.Minute); err != nil {
			t.Errorf("poke: %v", err)
		}
		n, res := c.Notifications().RecvTimeout(time.Second)
		if res != vtime.RecvOK {
			t.Errorf("notification result = %v", res)
			return
		}
		if n.Method != "poked" {
			t.Errorf("notification method = %q, want poked", n.Method)
		}
		var reply echoReply
		if err := n.Decode(&reply); err != nil || reply.Text != "back" {
			t.Errorf("notification body = %+v, %v", reply, err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// A preamble that rejects the connection closes it, and no step of the
// connection's task runs: the call that was already queued when the
// preamble decided is never handled.
func TestPreambleRejectsConnection(t *testing.T) {
	sim, a, b := newPair(t)
	l, err := b.Listen("guarded")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	served := 0
	Serve(sim, l, HandlerFuncs{
		Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) { served++; return nil, nil },
	}, func(conn *transport.Conn) (any, error) {
		sim.Sleep(10 * ms) // the client's call is queued by now
		return nil, fmt.Errorf("denied")
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "guarded"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		err = c.Call("anything", nil, nil, time.Minute)
		if err != ErrClosed {
			t.Errorf("Call on rejected conn = %v, want ErrClosed", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if served != 0 {
		t.Errorf("the rejected connection's handler ran %d time(s), want 0", served)
	}
}

func TestConcurrentCallsOverSeparateConnections(t *testing.T) {
	sim, a, b := newPair(t)
	startEcho(t, sim, b)
	wg := vtime.NewWaitGroup(sim)
	const n = 8
	wg.Add(n)
	var end time.Duration
	// One driver spawns the callers: spawned from the test goroutine, the
	// first runs at once and alone, and can be the whole run before the next
	// process exists.
	err := sim.Run("main", func() {
		for i := 0; i < n; i++ {
			sim.Go("caller", func() {
				defer wg.Done()
				conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				c := NewClient(sim, conn)
				defer c.Close()
				var reply echoReply
				msg := fmt.Sprintf("m%d", i)
				if err := c.Call("echo", echoArgs{Text: msg, Delay: 100}, &reply, time.Minute); err != nil {
					t.Errorf("Call: %v", err)
					return
				}
				if reply.Text != msg {
					t.Errorf("reply %q, want %q", reply.Text, msg)
				}
			})
		}
		wg.Wait()
		end = sim.Now()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	// All calls run in parallel on separate connections: total time is one
	// dial (2ms) plus one call (102ms), not n of them.
	if end != 104*time.Millisecond {
		t.Fatalf("8 parallel calls finished at %v, want 104ms", end)
	}
}

// A connection reads its next frame without waiting for the previous call's
// reply: two calls pipelined on one connection, each kept by the handler and
// answered later through its own Call, overlap their service times.
func TestCallsOnOneConnectionOverlap(t *testing.T) {
	sim, a, b := newPair(t)
	startEcho(t, sim, b)
	err := sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		wg := vtime.NewWaitGroup(sim)
		wg.Add(2)
		start := sim.Now()
		for i := 0; i < 2; i++ {
			sim.Go("call", func() {
				defer wg.Done()
				if err := c.Call("echo", echoArgs{Text: "x", Delay: 200}, nil, time.Minute); err != nil {
					t.Errorf("Call: %v", err)
				}
			})
		}
		wg.Wait()
		if took := sim.Now() - start; took != 202*time.Millisecond {
			t.Errorf("two pipelined calls took %v, want 202ms (not 402ms: one after the other)", took)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
