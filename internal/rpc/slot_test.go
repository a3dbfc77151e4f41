package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
	"cogrid/internal/wire"
)

// scripted is the far end of a connection played by hand: it accepts one
// connection, collects the calls that arrive, and the case's script answers
// them frame by frame — which is how two things are made to land on the
// client in one instant, in a chosen order.
type scripted struct {
	e     *contractEnv
	conn  *transport.Conn
	calls []wire.Envelope
}

// expect blocks until n calls have arrived in all.
func (s *scripted) expect(n int) {
	var dec wire.Decoder
	for len(s.calls) < n {
		raw, err := s.conn.Recv()
		if err != nil {
			s.e.t.Errorf("scripted server: connection closed with %d of %d calls in", len(s.calls), n)
			return
		}
		var env wire.Envelope
		if dec.Decode(raw, &env) == nil && env.Kind == wire.KindCall {
			s.calls = append(s.calls, env)
		}
	}
}

// send puts one envelope on the wire.
func (s *scripted) send(env wire.Envelope) { s.conn.Send(frame(env)) }

// answer replies to the i-th call that arrived with v.
func (s *scripted) answer(i int, v any) {
	body, _ := json.Marshal(v)
	s.send(wire.Envelope{Kind: wire.KindReply, ID: s.calls[i].ID, Body: body})
}

// script starts the scripted server on b and returns once it is listening.
func (e *contractEnv) script(play func(s *scripted)) {
	l, err := e.b.Listen("svc")
	if err != nil {
		e.t.Fatalf("Listen: %v", err)
	}
	e.sim.GoDaemon("scripted-server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		play(&scripted{e: e, conn: conn})
	})
}

// slotState reads the client's reply slots: whether a caller holds the one
// in the Client, and how many calls wait in the overflow map (-1: there is
// no map).
func slotState(c *Client) (firstTaken bool, overflow int) {
	if c.overflow == nil {
		return c.firstTaken, -1
	}
	return c.firstTaken, len(c.overflow)
}

// TestReplySlotContract pins what a caller waiting for its reply is promised,
// outcome by outcome, and where it matters what the reply slots look like
// meanwhile. Everything but the slotState checks held when a call waited on
// a channel of its own.
func TestReplySlotContract(t *testing.T) {
	cases := []struct {
		name   string
		client func(e *contractEnv)
	}{
		{
			name: "the reply before the timeout",
			client: func(e *contractEnv) {
				e.script(func(s *scripted) {
					s.expect(1)
					e.sim.Sleep(500 * ms)
					s.answer(0, "in time")
				})
				c := e.dial()
				var reply string
				if err := c.Call("wait", nil, &reply, time.Second); err != nil || reply != "in time" || e.sim.Now() != 504*ms {
					e.t.Errorf("Call = %q, %v at %v; want the reply at 504ms", reply, err, e.sim.Now())
				}
				if taken, overflow := slotState(c); taken || overflow != -1 {
					e.t.Errorf("after one call at a time: slot taken %v, overflow %d; want free and no map", taken, overflow)
				}
				e.sim.Sleep(time.Second) // the timeout's instant passes: nothing was left armed
				if err := c.Call("wait", nil, nil, 0); err != ErrTimeout {
					e.t.Errorf("a call with no time to wait = %v, want ErrTimeout", err)
				}
				c.Close()
				if got := e.counter("call", "ok", "a"); got != 1 {
					e.t.Errorf("rpc.call.ok@a = %d, want 1", got)
				}
			},
		},
		{
			name: "the timeout, then the late reply: dropped, counted, traced under the call's id",
			client: func(e *contractEnv) {
				e.script(func(s *scripted) {
					s.expect(1)
					e.sim.Sleep(5 * time.Second)
					s.answer(0, "late")
					s.expect(2)
					s.answer(1, "second")
				})
				c := e.dial()
				if err := c.Call("slow", nil, nil, time.Second); err != ErrTimeout || e.sim.Now() != 1002*ms {
					e.t.Errorf("Call = %v at %v, want ErrTimeout at 1.002s", err, e.sim.Now())
				}
				if taken, overflow := slotState(c); taken || overflow != -1 {
					e.t.Errorf("after the timeout: slot taken %v, overflow %d; want free and no map", taken, overflow)
				}
				e.sim.Sleep(10 * time.Second)
				if drop, timeout := e.counter("reply", "drop", "a"), e.counter("call", "timeout", "a"); drop != 1 || timeout != 1 {
					e.t.Errorf("rpc.reply.drop@a = %d, rpc.call.timeout@a = %d; want 1 and 1", drop, timeout)
				}
				var callID, dropID string
				for _, ev := range e.tr.Events() {
					switch {
					case ev.Cat == "rpc" && ev.Name == "call:slow":
						callID = ev.ID
					case ev.Cat == "rpc" && ev.Name == "dropped-reply":
						dropID = ev.ID
					}
				}
				if callID == "" || dropID != callID {
					e.t.Errorf("dropped-reply id %q, call span id %q: want equal and set", dropID, callID)
				}
				// The slot the late reply did not find serves the next call.
				var reply string
				if err := c.Call("next", nil, &reply, time.Second); err != nil || reply != "second" {
					e.t.Errorf("the call after the late reply = %q, %v", reply, err)
				}
				c.Close()
			},
		},
		{
			name: "Close with three callers blocked wakes them in call order with ErrClosed",
			client: func(e *contractEnv) {
				e.script(func(s *scripted) {
					s.expect(2)
					s.answer(0, "again")
					s.expect(4)
					e.sim.Sleep(time.Hour)
				})
				c := e.dial()
				var resumed []int
				wg := vtime.NewWaitGroup(e.sim)
				wg.Add(3)
				// Caller 0's first call is answered and it calls again, after caller
				// 1 and before caller 2: by then the slot in the Client holds call 3
				// and the map calls 2 and 4, and call order runs through both.
				for i := 0; i < 3; i++ {
					e.sim.Go(fmt.Sprintf("caller%d", i), func() {
						defer wg.Done()
						e.sim.Sleep(time.Duration(i) * 10 * ms)
						if i == 0 {
							if err := c.Call("tag", i, nil, time.Hour); err != nil {
								e.t.Errorf("caller 0's first call: %v", err)
							}
						}
						if err := c.Call("tag", i, nil, time.Hour); err != ErrClosed {
							e.t.Errorf("caller %d: %v, want ErrClosed", i, err)
						}
						resumed = append(resumed, i)
					})
				}
				e.sim.Sleep(100 * ms)
				if taken, overflow := slotState(c); !taken || overflow != 2 {
					e.t.Errorf("three calls outstanding: slot taken %v, overflow %d; want taken and 2", taken, overflow)
				}
				if c.first.id != 3 {
					e.t.Errorf("the slot in the Client holds call %d, want 3", c.first.id)
				}
				c.Close()
				wg.Wait()
				if fmt.Sprint(resumed) != "[1 0 2]" {
					e.t.Errorf("callers resumed in order %v, want [1 0 2]: the order of their pending calls", resumed)
				}
				if got := e.counter("call", "closed", "a"); got != 3 {
					e.t.Errorf("rpc.call.closed@a = %d, want 3", got)
				}
				if err := c.Call("tag", 0, nil, time.Minute); err != ErrClosed {
					e.t.Errorf("Call after Close = %v, want ErrClosed", err)
				}
			},
		},
		{
			// The reply and the FIN behind it are delivered in one step of the
			// pipeline and read in one step of the demux: the call the reply
			// answers has it, the other learns the connection closed, and the
			// slot that got the reply is not also marked closed.
			name: "a reply and the connection's close at one instant",
			client: func(e *contractEnv) {
				e.script(func(s *scripted) {
					s.expect(2)
					s.answer(0, "answered")
					s.conn.Close()
				})
				c := e.dial()
				results := make([]error, 2)
				replies := make([]string, 2)
				at := make([]time.Duration, 2)
				wg := vtime.NewWaitGroup(e.sim)
				wg.Add(2)
				for i := range results {
					e.sim.Go(fmt.Sprintf("caller%d", i), func() {
						defer wg.Done()
						e.sim.Sleep(time.Duration(i) * time.Microsecond)
						results[i] = c.Call("tag", i, &replies[i], time.Hour)
						at[i] = e.sim.Now()
					})
				}
				wg.Wait()
				if results[0] != nil || replies[0] != "answered" || results[1] != ErrClosed || at[0] != at[1] {
					e.t.Errorf("caller 0: %q, %v at %v; caller 1: %v at %v; want the reply and ErrClosed at one instant",
						replies[0], results[0], at[0], results[1], at[1])
				}
				if ok, closed := e.counter("call", "ok", "a"), e.counter("call", "closed", "a"); ok != 1 || closed != 1 {
					e.t.Errorf("rpc.call.ok@a = %d, rpc.call.closed@a = %d; want 1 and 1", ok, closed)
				}
				if _, open := c.Notifications().Recv(); open {
					e.t.Error("Notifications still open after the server closed")
				}
			},
		},
		{
			// The second call finds the slot in the Client taken and makes the
			// map; the replies come back last first and each caller gets its own.
			// Then the hazard the slot's hold exists for: a notification and the
			// reply behind it land in one demux step, the process the notification
			// wakes runs before the caller the reply wakes, and calls at once. The
			// answered slot is not free yet — its caller has not read it.
			name: "two calls outstanding from two processes make the overflow map",
			client: func(e *contractEnv) {
				e.script(func(s *scripted) {
					s.expect(2)
					s.answer(1, "second")
					s.answer(0, "first")
					s.expect(3)
					s.send(wire.Envelope{Kind: wire.KindNotify, Method: "go"})
					s.answer(2, "third")
					s.expect(4)
					s.answer(3, "fourth")
				})
				c := e.dial()
				if taken, overflow := slotState(c); taken || overflow != -1 {
					e.t.Errorf("a fresh client: slot taken %v, overflow %d; want free and no map", taken, overflow)
				}
				replies := make([]string, 2)
				wg := vtime.NewWaitGroup(e.sim)
				wg.Add(2)
				for i := range replies {
					e.sim.Go(fmt.Sprintf("caller%d", i), func() {
						defer wg.Done()
						e.sim.Sleep(time.Duration(i) * time.Microsecond)
						if err := c.Call("tag", i, &replies[i], time.Minute); err != nil {
							e.t.Errorf("caller %d: %v", i, err)
						}
					})
				}
				e.sim.Sleep(ms)
				if taken, overflow := slotState(c); !taken || overflow != 1 {
					e.t.Errorf("two calls outstanding: slot taken %v, overflow %d; want taken and 1", taken, overflow)
				}
				wg.Wait()
				if replies[0] != "first" || replies[1] != "second" {
					e.t.Errorf("replies %q, want each caller its own", replies)
				}
				if taken, overflow := slotState(c); taken || overflow != 0 {
					e.t.Errorf("both answered: slot taken %v, overflow %d; want free and an empty map", taken, overflow)
				}

				var fourth string
				wg.Add(1)
				e.sim.Go("notified", func() {
					defer wg.Done()
					if n, ok := c.Notifications().Recv(); !ok || n.Method != "go" {
						e.t.Errorf("notification = %+v, %v", n, ok)
					}
					if taken, overflow := slotState(c); !taken || overflow != 0 {
						e.t.Errorf("the third call answered, its caller not yet resumed: slot taken %v, overflow %d; want still taken", taken, overflow)
					}
					if err := c.Call("tag", 3, &fourth, time.Minute); err != nil {
						e.t.Errorf("the notified process's call: %v", err)
					}
				})
				var third string
				if err := c.Call("tag", 2, &third, time.Minute); err != nil || third != "third" {
					e.t.Errorf("the third call = %q, %v; want its own reply whatever was called meanwhile", third, err)
				}
				wg.Wait()
				if fourth != "fourth" {
					e.t.Errorf("the notified process's call got %q", fourth)
				}
				c.Close()
			},
		},
		{
			// No call has id 0, the id a free slot holds: a reply that claims it
			// is late like any other the client is not waiting for.
			name: "a reply to call 0 finds no slot",
			client: func(e *contractEnv) {
				e.script(func(s *scripted) {
					s.expect(1)
					s.send(wire.Envelope{Kind: wire.KindReply, ID: 0, Body: []byte(`"nobody's"`)})
					s.send(wire.Envelope{Kind: wire.KindReply, ID: 99, Body: []byte(`"nobody's"`)})
					s.answer(0, "mine")
				})
				c := e.dial()
				var reply string
				if err := c.Call("tag", nil, &reply, time.Minute); err != nil || reply != "mine" {
					e.t.Errorf("Call = %q, %v", reply, err)
				}
				if got := e.counter("reply", "drop", "a"); got != 2 {
					e.t.Errorf("rpc.reply.drop@a = %d, want 2", got)
				}
				c.Close()
			},
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
		})
	}
}

// TestClientNamesAreRenderedOnDemand: the reply slots and the notification
// queue carry no name of their own; when a deadlock report asks (a caller
// always waits with a timeout, so of the two only the queue can be in one),
// the client renders the names they always had.
func TestClientNamesAreRenderedOnDemand(t *testing.T) {
	sim, a, b := newPair(t)
	e := &contractEnv{t: t, sim: sim, a: a, b: b}
	e.script(func(s *scripted) { s.expect(2) })
	err := sim.Run("client", func() {
		c := e.dial()
		sim.Go("caller", func() {
			if err := c.Call("once", nil, nil, time.Second); err != ErrTimeout {
				t.Errorf("Call = %v, want ErrTimeout", err)
			}
		})
		sim.Sleep(10 * ms) // the call is waiting
		if got := c.first.done.String(); got != "rpc-reply:a:client" {
			t.Errorf("the reply slot's event is named %q", got)
		}
		c.Notifications().Recv() // nothing will come: once the call has timed out the run deadlocks here
	})
	var dl *vtime.DeadlockError
	if !errors.As(err, &dl) || !strings.Contains(strings.Join(dl.Blocked, "; "), "client: recv on rpc-notify:a:client") {
		t.Errorf("run ended with %v, want a deadlock naming the notification queue", err)
	}
}
