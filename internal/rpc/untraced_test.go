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

// seenEnv is what a relay saw of one envelope: its kind, method and context.
type seenEnv struct {
	kind              byte
	method, req, span string
}

// relay forwards every frame from one connection to another, as sent, and
// notes each envelope it carries.
func relay(from, to *transport.Conn, seen *[]seenEnv) {
	var dec wire.Decoder
	for {
		raw, err := from.Recv()
		if err != nil {
			to.Close()
			return
		}
		var env wire.Envelope
		if dec.Decode(raw, &env) == nil && env.Kind != 0 {
			*seen = append(*seen, seenEnv{env.Kind, env.Method, env.Req, env.Span})
		}
		to.Send(raw)
	}
}

// notifier answers every call and pushes three notifications with it: one
// under no context (the connection's base context stands in), one under
// the call's and one under a fresh request's. It keeps each call's Ctx.
type notifier struct{ ctxs *[]trace.Ctx }

func (n notifier) ServeCall(call *Call, method string, body json.RawMessage) {
	*n.ctxs = append(*n.ctxs, call.Ctx)
	sc := call.Conn()
	sc.NotifyCtx(trace.Ctx{}, "base", nil)
	sc.NotifyCtx(call.Ctx, "call", nil)
	sc.NotifyCtx(trace.NewRequest("r2"), "fresh", nil)
	call.Reply(rawBody(body), nil)
}

// TestUntracedNetworkCarriesNoContext: on an untraced network no envelope
// carries a span context, whatever the layers above hand rpc. Every
// connection is dialed under a request context, a call goes under one and
// another under none, and the server notifies under none, under the call's
// and under a fresh request's; a relay between client and server decodes
// every frame. Untraced, the server's Call.Ctx is the zero Ctx and so is
// every envelope's and every notification's context. Traced, every
// envelope carries its request: the relay sees what it is there to see.
func TestUntracedNetworkCarriesNoContext(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			sim := vtime.New()
			net := transport.New(sim, transport.UniformLatency(time.Millisecond))
			if traced {
				net.SetTracer(trace.New(sim))
			}
			a, r, b := net.AddHost("a"), net.AddHost("r"), net.AddHost("b")
			var ctxs []trace.Ctx
			var seen []seenEnv
			l, err := b.Listen("svc")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			Serve(sim, l, notifier{&ctxs}, nil)
			front, err := r.Listen("svc")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			sim.GoDaemon("relay", func() {
				in, ok := front.Accept()
				if !ok {
					return
				}
				out, err := r.DialCtx(transport.Addr{Host: "b", Service: "svc"}, trace.NewRequest("r1"))
				if err != nil {
					t.Errorf("relay Dial: %v", err)
					return
				}
				sim.GoDaemon("relay-back", func() { relay(out, in, &seen) })
				relay(in, out, &seen)
			})
			var notes []Notification
			err = sim.Run("client", func() {
				conn, err := a.DialCtx(transport.Addr{Host: "r", Service: "svc"}, trace.NewRequest("r1"))
				if err != nil {
					t.Fatalf("Dial: %v", err)
				}
				c := NewClient(sim, conn)
				var reply pingBody
				if err := c.CallCtx(trace.NewRequest("r1"), "under-ctx", ping, &reply, time.Minute); err != nil || reply != *ping {
					t.Errorf("CallCtx = %+v, %v", reply, err)
				}
				if err := c.Call("under-base", ping, &reply, time.Minute); err != nil || reply != *ping {
					t.Errorf("Call = %+v, %v", reply, err)
				}
				sim.Sleep(10 * ms) // every notification has arrived
				for {
					n, ok := c.Notifications().TryRecv()
					if !ok {
						break
					}
					notes = append(notes, n)
				}
				c.Close()
				sim.Sleep(10 * ms)
			})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			kinds := map[byte]int{}
			for _, env := range seen {
				kinds[env.kind]++
				if carries := env.req != "" || env.span != ""; carries != traced {
					t.Errorf("kind %d %q envelope carries req %q span %q", env.kind, env.method, env.req, env.span)
				}
			}
			if kinds[wire.KindCall] != 2 || kinds[wire.KindReply] != 2 || kinds[wire.KindNotify] != 6 {
				t.Errorf("the relay saw %d calls, %d replies and %d notifications, want 2, 2 and 6",
					kinds[wire.KindCall], kinds[wire.KindReply], kinds[wire.KindNotify])
			}
			if len(ctxs) != 2 || len(notes) != 6 {
				t.Fatalf("%d calls served and %d notifications received, want 2 and 6", len(ctxs), len(notes))
			}
			for i, ctx := range ctxs {
				if ctx.Valid() != traced || (ctx == trace.Ctx{}) == traced {
					t.Errorf("call %d served under %+v", i, ctx)
				}
			}
			for _, n := range notes {
				if n.Ctx.Valid() != traced {
					t.Errorf("notification %q received under %+v", n.Method, n.Ctx)
				}
			}
		})
	}
}
