package rpc

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
	"cogrid/internal/wire"
)

const ms = time.Millisecond

// contractEnv is what a contract case's client script gets to work with:
// two hosts 1 ms apart, traced and counted.
type contractEnv struct {
	t    *testing.T
	sim  *vtime.Sim
	tr   *trace.Tracer
	ctrs *trace.Counters
	a, b *transport.Host
}

// serve starts h on b under service "svc".
func (e *contractEnv) serve(h Handler) {
	l, err := e.b.Listen("svc")
	if err != nil {
		e.t.Fatalf("Listen: %v", err)
	}
	Serve(e.sim, l, h, nil)
}

// dial connects a to the service and wraps the connection.
func (e *contractEnv) dial() *Client {
	conn, err := e.a.Dial(transport.Addr{Host: "b", Service: "svc"})
	if err != nil {
		e.t.Fatalf("Dial: %v", err)
	}
	return NewClient(e.sim, conn)
}

func (e *contractEnv) counter(kind, verb, host string) int64 {
	return e.ctrs.Get(trace.Key("rpc", kind, verb, host))
}

// callers runs n concurrent calls on c, each from its own process, and
// returns when all have. Caller i sends its own index and the reply must
// carry it back; results[i] is what caller i's Call returned and at[i] when.
func (e *contractEnv) callers(c *Client, n int, timeout time.Duration) (results []error, at []time.Duration) {
	results, at = make([]error, n), make([]time.Duration, n)
	wg := vtime.NewWaitGroup(e.sim)
	wg.Add(n)
	for i := 0; i < n; i++ {
		e.sim.Go(fmt.Sprintf("caller%d", i), func() {
			defer wg.Done()
			var got int
			results[i] = c.Call("tag", i, &got, timeout)
			at[i] = e.sim.Now()
			if results[i] == nil && got != i {
				e.t.Errorf("caller %d received the reply meant for caller %d", i, got)
			}
		})
	}
	wg.Wait()
	return results, at
}

// stall is a handler whose every call outlasts the run.
var stall = HandlerFuncs{Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) {
	sc.sim.Sleep(time.Hour)
	return nil, nil
}}

// TestClientServerContract pins what an rpc connection promises its two
// ends — matching, loss accounting, failure, ordering — and how many kernel
// timers a run spends, case by case. The totals are the transport's (one
// per distinct delivery instant per direction, two per dial) plus the
// script's and the handlers' own sleeps and the timeouts that expire: they
// hold for any implementation that waits exactly where a process per
// connection end would.
func TestClientServerContract(t *testing.T) {
	cases := []struct {
		name   string
		client func(e *contractEnv)
		timers int64
	}{
		{
			// The server answers three pipelined calls last first; each
			// caller still gets its own.
			name: "replies matched out of order across concurrent callers",
			client: func(e *contractEnv) {
				l, err := e.b.Listen("svc")
				if err != nil {
					e.t.Fatalf("Listen: %v", err)
				}
				e.sim.GoDaemon("reverse-server", func() {
					conn, _ := l.Accept()
					var dec wire.Decoder
					var calls []wire.Envelope
					for len(calls) < 3 {
						raw, err := conn.Recv()
						if err != nil {
							return
						}
						var env wire.Envelope
						if dec.Decode(raw, &env) == nil && env.Kind == wire.KindCall {
							calls = append(calls, env)
						}
					}
					for i := len(calls) - 1; i >= 0; i-- {
						conn.Send(frame(wire.Envelope{Kind: wire.KindReply, ID: calls[i].ID, Body: calls[i].Body}))
					}
				})
				c := e.dial()
				results, at := e.callers(c, 3, time.Minute)
				for i, err := range results {
					if err != nil || at[i] != 4*ms {
						e.t.Errorf("caller %d: %v at %v, want nil at 4ms", i, err, at[i])
					}
				}
				c.Close()
				e.sim.Sleep(5 * ms)
			},
			timers: 2 + 1 + 1 + 1 + 1, // dial; prologue+calls; replies; FIN; the script's sleep
		},
		{
			name: "late reply after a timeout is dropped, counted and traced under the call's id",
			client: func(e *contractEnv) {
				e.serve(HandlerFuncs{Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) {
					sc.sim.Sleep(5 * time.Second)
					return "late", nil
				}})
				c := e.dial()
				if err := c.Call("slow", nil, nil, time.Second); err != ErrTimeout {
					e.t.Errorf("Call = %v, want ErrTimeout", err)
				}
				e.sim.Sleep(10 * time.Second)
				if got := e.counter("reply", "drop", "a"); got != 1 {
					e.t.Errorf("rpc.reply.drop@a = %d, want 1", got)
				}
				if got := e.counter("call", "timeout", "a"); got != 1 {
					e.t.Errorf("rpc.call.timeout@a = %d, want 1", got)
				}
				var callID, dropID string
				for _, ev := range e.tr.Events() {
					if ev.Cat != "rpc" {
						continue
					}
					switch ev.Name {
					case "call:slow":
						callID = ev.ID
					case "dropped-reply":
						dropID = ev.ID
					}
				}
				if callID == "" || dropID != callID {
					e.t.Errorf("dropped-reply id %q, call span id %q: want equal and set", dropID, callID)
				}
				c.Close()
				e.sim.Sleep(5 * ms)
			},
			// dial; both prologues (the call rides with the client's); its
			// timeout; handler sleep; reply; FIN; the script's two sleeps.
			timers: 2 + 2 + 1 + 1 + 1 + 1 + 2,
		},
		{
			name: "Close fails every pending call and closes Notifications",
			client: func(e *contractEnv) {
				e.serve(stall)
				c := e.dial()
				e.sim.AfterFunc(10*ms, c.Close)
				results, at := e.callers(c, 3, time.Hour)
				for i, err := range results {
					if err != ErrClosed || at[i] != 12*ms {
						e.t.Errorf("caller %d: %v at %v, want ErrClosed at 12ms", i, err, at[i])
					}
				}
				if _, ok := c.Notifications().Recv(); ok {
					e.t.Error("Notifications still open after Close")
				}
				if err := c.Call("tag", 0, nil, time.Minute); err != ErrClosed {
					e.t.Errorf("Call after Close = %v, want ErrClosed", err)
				}
				e.sim.Sleep(5 * ms)
			},
			timers: 2 + 2 + 1 + 1 + 1, // dial; prologues (the calls ride with the client's); AfterFunc; FIN; sleep
		},
		{
			name: "server crash fails every pending call and closes Notifications",
			client: func(e *contractEnv) {
				e.serve(stall)
				c := e.dial()
				e.sim.AfterFunc(100*ms, e.b.Crash)
				results, at := e.callers(c, 3, time.Hour)
				for i, err := range results {
					if err != ErrClosed || at[i] != 103*ms {
						e.t.Errorf("caller %d: %v at %v, want ErrClosed at 103ms", i, err, at[i])
					}
				}
				if _, ok := c.Notifications().Recv(); ok {
					e.t.Error("Notifications still open after the server crashed")
				}
				e.sim.Sleep(5 * ms)
			},
			timers: 2 + 2 + 1 + 1 + 1, // dial; prologues; AfterFunc; the crash's FIN; sleep
		},
		{
			name: "malformed frames are counted and skipped in both directions",
			client: func(e *contractEnv) {
				e.serve(HandlerFuncs{
					Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) { return "fine", nil },
					NotifyFunc: func(sc *ServerConn, method string, body json.RawMessage) {
						sc.conn.Send([]byte("\xc7garbage from the server"))
						sc.conn.Send([]byte(`{"kind":"notify","method":"json"}`))
						sc.Notify("after", nil)
					},
				})
				conn, err := e.a.Dial(transport.Addr{Host: "b", Service: "svc"})
				if err != nil {
					e.t.Fatalf("Dial: %v", err)
				}
				conn.Send([]byte("not a frame at all"))
				conn.Send([]byte(`{"kind":"call","id":9,"method":"json"}`))
				c := NewClient(e.sim, conn)
				var reply string
				if err := c.Call("anything", nil, &reply, time.Minute); err != nil || reply != "fine" {
					e.t.Errorf("Call after garbage = %q, %v", reply, err)
				}
				c.Notify("garble", nil)
				if n, res := c.Notifications().RecvTimeout(time.Second); res != vtime.RecvOK || n.Method != "after" {
					e.t.Errorf("notification behind the server's garbage = %+v, %v", n, res)
				}
				if a, b := e.counter("frame", "decode-error", "a"), e.counter("frame", "decode-error", "b"); a != 2 || b != 2 {
					e.t.Errorf("decode errors: %d at a, %d at b; want 2 and 2", a, b)
				}
				c.Close()
				e.sim.Sleep(5 * ms)
			},
			// dial; garbage+prologue+call; server prologue; reply; notify;
			// garbage+"after"; FIN; sleep.
			timers: 2 + 1 + 1 + 1 + 1 + 1 + 1 + 1,
		},
		{
			name: "notifications arrive in send order both ways",
			client: func(e *contractEnv) {
				var seen []string
				e.serve(HandlerFuncs{NotifyFunc: func(sc *ServerConn, method string, body json.RawMessage) {
					seen = append(seen, method)
					sc.Notify("echo:"+method, nil)
				}})
				c := e.dial()
				want := []string{"n0", "n1", "n2", "n3", "n4"}
				for _, m := range want {
					c.Notify(m, nil)
				}
				var back []string
				for range want {
					n, res := c.Notifications().RecvTimeout(time.Second)
					if res != vtime.RecvOK {
						e.t.Errorf("notification %d: %v", len(back), res)
						break
					}
					back = append(back, strings.TrimPrefix(n.Method, "echo:"))
				}
				if !reflect.DeepEqual(seen, want) || !reflect.DeepEqual(back, want) {
					e.t.Errorf("server saw %v, client got back %v; want %v both", seen, back, want)
				}
				if sent, recvd := e.counter("notify", "send", "b"), e.counter("notify", "recv", "a"); sent != 5 || recvd != 5 {
					e.t.Errorf("rpc.notify: %d sent by b, %d received at a; want 5 and 5", sent, recvd)
				}
				c.Close()
				e.sim.Sleep(5 * ms)
			},
			timers: 2 + 1 + 1 + 1 + 1 + 1, // dial; prologue+notifies; server prologue; echoes; FIN; sleep
		},
		{
			name: "server push after the client is gone is harmless",
			client: func(e *contractEnv) {
				pushed := vtime.NewChan[error](e.sim, "pushed", 1)
				e.serve(HandlerFuncs{NotifyFunc: func(sc *ServerConn, method string, body json.RawMessage) {
					sc.sim.Sleep(5 * time.Second)
					pushed.Send(sc.Notify("late", nil))
				}})
				c := e.dial()
				c.Notify("poke", nil)
				e.sim.Sleep(time.Second)
				c.Close()
				if err, res := pushed.RecvTimeout(time.Minute); res != vtime.RecvOK || err != ErrClosed {
					e.t.Errorf("late push = %v, %v; want ErrClosed", err, res)
				}
				e.sim.Sleep(5 * ms)
			},
			timers: 2 + 2 + 1 + 1 + 1 + 1, // dial; prologues (the poke rides with the client's); sleep; FIN; handler sleep; sleep
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.New()
			net := transport.New(sim, transport.UniformLatency(ms))
			e := &contractEnv{t: t, sim: sim, tr: trace.New(sim), ctrs: trace.NewCounters(), a: net.AddHost("a"), b: net.AddHost("b")}
			net.SetTracer(e.tr)
			net.SetCounters(e.ctrs)
			if err := sim.Run("client", func() { tc.client(e) }); err != nil {
				t.Fatalf("sim: %v", err)
			}
			if got := sim.TimersFired(); got != tc.timers {
				t.Errorf("run fired %d timers, want %d", got, tc.timers)
			}
		})
	}
}
