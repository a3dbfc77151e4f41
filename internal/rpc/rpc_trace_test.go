package rpc

import (
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// newTracedPair is newPair with a tracer and counter registry attached.
func newTracedPair(t *testing.T) (*vtime.Sim, *trace.Tracer, *trace.Counters, *transport.Host, *transport.Host) {
	t.Helper()
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	tr := trace.New(sim)
	ctrs := trace.NewCounters()
	net.SetTracer(tr)
	net.SetCounters(ctrs)
	return sim, tr, ctrs, net.AddHost("a"), net.AddHost("b")
}

// A timed-out call must (a) leave no entry behind in the pending table and
// (b) surface the late reply as a dropped-reply trace event correlated with
// the call span by ID, so a trace reader can pair them up.
func TestTimedOutCallCorrelatesLateReplyAsDropped(t *testing.T) {
	sim, tr, ctrs, a, b := newTracedPair(t)
	startEcho(t, sim, b)
	err := sim.Run("client", func() {
		conn, err := a.Dial(transport.Addr{Host: "b", Service: "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		// Handler sleeps 5 s, call allows 1 s: guaranteed timeout, with the
		// reply still in flight afterwards.
		if err := c.Call("echo", echoArgs{Text: "slow", Delay: 5000}, nil, time.Second); err != ErrTimeout {
			t.Errorf("Call = %v, want ErrTimeout", err)
		}
		sim.Sleep(10 * time.Second) // let the late reply arrive and be dropped
		c.mu.Lock()
		leaked, held := len(c.overflow), c.firstTaken || c.first.id != 0
		c.mu.Unlock()
		if leaked != 0 || held {
			t.Errorf("after the timeout %d reply slots are pending and the client's own is held: %v; want none", leaked, held)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}

	var callID string
	for _, ev := range tr.Events() {
		if ev.Cat == "rpc" && ev.Name == "call:echo" {
			callID = ev.ID
			for _, arg := range ev.Args {
				if arg.Key == "outcome" && arg.Val != "timeout" {
					t.Errorf("call:echo outcome = %q, want timeout", arg.Val)
				}
			}
		}
	}
	if callID == "" {
		t.Fatal("no call:echo span in trace")
	}
	found := false
	for _, ev := range tr.Events() {
		if ev.Cat == "rpc" && ev.Name == "dropped-reply" {
			found = true
			if ev.ID != callID {
				t.Errorf("dropped-reply ID = %q, want %q (the timed-out call)", ev.ID, callID)
			}
		}
	}
	if !found {
		t.Error("late reply produced no dropped-reply event")
	}
	if got := ctrs.Get(trace.Key("rpc", "reply", "drop", "a")); got != 1 {
		t.Errorf("rpc.reply.drop@a = %d, want 1", got)
	}
	if got := ctrs.Get(trace.Key("rpc", "call", "timeout", "a")); got != 1 {
		t.Errorf("rpc.call.timeout@a = %d, want 1", got)
	}
}

// A call that times out and is retried under the same span context must
// keep the whole exchange — both call attempts, both server handlers, and
// the late dropped reply of the first attempt — attributed to the one
// request id, with each attempt on its own span path so a causal tree
// keeps them apart.
func TestRetriedCallKeepsRequestID(t *testing.T) {
	sim, tr, _, a, b := newTracedPair(t)
	startEcho(t, sim, b)
	ctx := trace.NewRequest("retry-req")
	err := sim.Run("client", func() {
		conn, err := a.DialCtx(transport.Addr{Host: "b", Service: "echo"}, ctx)
		if err != nil {
			t.Errorf("DialCtx: %v", err)
			return
		}
		c := NewClient(sim, conn)
		defer c.Close()
		// First attempt: handler sleeps 5 s, call allows 1 s — the reply is
		// dropped in flight.
		if err := c.CallCtx(ctx, "echo", echoArgs{Text: "slow", Delay: 5000}, nil, time.Second); err != ErrTimeout {
			t.Errorf("first call = %v, want ErrTimeout", err)
		}
		// Retry under the same request context succeeds.
		var reply echoReply
		if err := c.CallCtx(ctx, "echo", echoArgs{Text: "again"}, &reply, time.Minute); err != nil {
			t.Errorf("retry: %v", err)
		}
		sim.Sleep(10 * time.Second) // let the first attempt's late reply arrive and be dropped
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}

	// Every event of the exchange — transport hops included — must carry
	// the request id: the retry may not start a second tree.
	var calls, serves, dropped []trace.Event
	for _, ev := range tr.Events() {
		if ev.Req != "retry-req" {
			t.Errorf("event %s/%s has req %q, want retry-req", ev.Cat, ev.Name, ev.Req)
		}
		switch {
		case ev.Cat == "rpc" && ev.Name == "call:echo":
			calls = append(calls, ev)
		case ev.Cat == "rpc" && ev.Name == "serve:echo":
			serves = append(serves, ev)
		case ev.Cat == "rpc" && ev.Name == "dropped-reply":
			dropped = append(dropped, ev)
		}
	}
	if len(calls) != 2 || len(serves) != 2 || len(dropped) != 1 {
		t.Fatalf("spans: %d calls, %d serves, %d dropped-replies; want 2, 2, 1",
			len(calls), len(serves), len(dropped))
	}
	if calls[0].Span == calls[1].Span {
		t.Errorf("both call attempts share span path %q; retries must get distinct paths", calls[0].Span)
	}
	a2 := trace.Analyze(tr.Events())
	if len(a2.Trees) != 1 || a2.Trees[0].Req != "retry-req" {
		t.Fatalf("analysis built %d trees, want 1 for retry-req", len(a2.Trees))
	}
	if cov := a2.Coverage(); cov != 1 {
		t.Errorf("coverage = %v, want 1", cov)
	}
}

// Client call and server handler spans of one RPC share a correlation ID.
func TestCallAndServeSpansShareCorrelationID(t *testing.T) {
	sim, tr, _, a, b := newTracedPair(t)
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
		if err := c.Call("echo", echoArgs{Text: "hi"}, &reply, time.Minute); err != nil {
			t.Errorf("Call: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	var callID, serveID string
	for _, ev := range tr.Events() {
		switch {
		case ev.Name == "call:echo":
			callID = ev.ID
			if ev.Proc != "a" {
				t.Errorf("call:echo proc = %q, want a", ev.Proc)
			}
		case ev.Name == "serve:echo":
			serveID = ev.ID
			if ev.Proc != "b" {
				t.Errorf("serve:echo proc = %q, want b", ev.Proc)
			}
		}
	}
	if callID == "" || serveID == "" {
		t.Fatalf("missing spans: call=%q serve=%q", callID, serveID)
	}
	if callID != serveID {
		t.Errorf("correlation mismatch: call=%q serve=%q", callID, serveID)
	}
}
