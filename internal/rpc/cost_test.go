package rpc

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// echoTasks is a TaskHandler that answers every call with its own body, in
// the step that reads it, and every notification with one of its own.
type echoTasks struct{}

func (echoTasks) ServeCall(call *Call, method string, body json.RawMessage) {
	call.Reply(body, nil)
}

func (echoTasks) HandleNotify(sc *ServerConn, method string, body json.RawMessage) {
	sc.Notify("echo:"+method, nil)
}

// What a call costs the kernel, counted (internal/transport's
// TestRoundTripCosts has the two timers and four delivery steps underneath).
// Nothing on the way owns a process unless the handler may block: against a
// TaskHandler, connecting spawns nothing and a lone caller dispatches the
// whole round trip itself — four delivery steps, the server connection's
// step and the demux step run on its own stack while it waits, and the
// grant it ends with is its own, so no goroutine switch happens at all. A
// Handler's connection is a process: the same call switches into it and
// back. (With a process for the demux and one per connection end the call
// cost three switches and every connection two spawns.)
func TestCallCosts(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		serve                   func(t *testing.T, l *transport.Listener, e *contractEnv)
		connSpawns              int64
		handoffs, timers, steps int64
	}{
		{
			name:     "TaskHandler",
			serve:    func(t *testing.T, l *transport.Listener, e *contractEnv) { ServeTasks(e.sim, l, echoTasks{}) },
			handoffs: 0, timers: 2, steps: 6,
		},
		{
			name: "Handler",
			serve: func(t *testing.T, l *transport.Listener, e *contractEnv) {
				Serve(e.sim, l, HandlerFuncs{Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) {
					return body, nil
				}}, nil)
			},
			connSpawns: 1, // rpc-conn
			handoffs:   2, timers: 2, steps: 5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, a, b := newPair(t)
			e := &contractEnv{t: t, sim: sim, a: a, b: b}
			err := sim.Run("client", func() {
				l, err := b.Listen("svc")
				if err != nil {
					t.Fatalf("Listen: %v", err)
				}
				spawned := sim.Spawned()
				tc.serve(t, l, e)
				c := e.dial()
				sim.Sleep(5 * ms) // accepted, both prologues delivered
				if got := sim.Spawned() - spawned; got != tc.connSpawns {
					t.Errorf("Serve, Dial, NewClient and the accept spawned %d process(es), want %d", got, tc.connSpawns)
				}
				var reply string
				if err := c.Call("warm", "up", &reply, time.Minute); err != nil {
					t.Fatalf("Call: %v", err)
				}
				spawned = sim.Spawned()
				handoffs, timers, steps := sim.Handoffs(), sim.TimersFired(), sim.TasksRun()
				if err := c.Call("echo", "ping", &reply, time.Minute); err != nil || reply != "ping" {
					t.Errorf("echo = %q, %v", reply, err)
				}
				if h, s, f, r := sim.Handoffs()-handoffs, sim.Spawned()-spawned, sim.TimersFired()-timers, sim.TasksRun()-steps; h != tc.handoffs || s != 0 || f != tc.timers || r != tc.steps {
					t.Errorf("one call: %d hand-offs, %d spawns, %d timers, %d task steps; want %d, 0, %d, %d",
						h, s, f, r, tc.handoffs, tc.timers, tc.steps)
				}
				c.Close()
			})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
		})
	}
}

// allocated reports what one call of f allocates, as counts and bytes
// averaged over runs; AllocsPerRun has no bytes and rounds.
func allocated(runs int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestOneShotExchangeCosts prices the unit the barrier repeats 64 times per
// co-allocation, and every layer above rpc about as often: dial, NewClient,
// one call, Close — both ends of the connection, the frames and the reply's
// decoding included — against a TaskHandler on an unobserved network; and
// one more call on a connection that is already there. The client is one
// allocation (it was seven: the reply map, the notification queue and three
// name strings were the rest), the wait for the reply none (a channel and
// its ring were two, 592 bytes), and an end of the pair 504 bytes (672).
// What the kernel is asked to do has not changed with any of that.
func TestOneShotExchangeCosts(t *testing.T) {
	sim, a, b := newPair(t)
	e := &contractEnv{t: t, sim: sim, a: a, b: b}
	err := sim.Run("client", func() {
		l, err := b.Listen("svc")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		ServeTasks(sim, l, echoTasks{})
		var reply string
		call := func(c *Client) {
			if err := c.Call("status", "ping", &reply, time.Minute); err != nil || reply != "ping" {
				t.Fatalf("Call = %q, %v", reply, err)
			}
		}
		exchange := func() {
			c := e.dial()
			call(c)
			c.Close()
			sim.Sleep(5 * ms) // the FIN has landed; the server's end is closed
		}
		warm := e.dial()
		for i := 0; i < 10; i++ { // buffer pools, timer entries, run queue
			exchange()
			call(warm)
		}

		handoffs, spawned, timers, steps := sim.Handoffs(), sim.Spawned(), sim.TimersFired(), sim.TasksRun()
		exchange()
		// Timers: SYN and SYN-ACK; the client's prologue and call (one instant);
		// the server's prologue; the reply; the FIN; the test's sleep. Steps: the
		// accept step, 8 of the two delivery pipelines (arm and deliver for each
		// of those four instants), 3 of the server connection's task (open,
		// the call, the close) and 3 of the demux (NewClient's, the prologue,
		// the reply).
		if h, s, f, r := sim.Handoffs()-handoffs, sim.Spawned()-spawned, sim.TimersFired()-timers, sim.TasksRun()-steps; h != 0 || s != 0 || f != 7 || r != 15 {
			t.Errorf("one exchange: %d hand-offs, %d spawns, %d timers, %d task steps; want 0, 0, 7, 15", h, s, f, r)
		}
		allocs, bytes := allocated(200, exchange)
		t.Logf("dial + NewClient + call + Close: %.3f allocations, %.0f bytes", allocs, bytes)
		if (allocs > 21 || bytes > 3300) && !raceEnabled { // 27.6 and 4 102 before
			t.Errorf("dial + NewClient + call + Close: %.1f allocations and %.0f bytes, want <= 21 and <= 3300", allocs, bytes)
		}
		allocs, bytes = allocated(200, func() { call(warm) })
		t.Logf("a call on a warm connection: %.3f allocations, %.0f bytes", allocs, bytes)
		if (allocs > 9.5 || bytes > 400) && !raceEnabled { // 11 and 982 before
			t.Errorf("a call on a warm connection: %.1f allocations and %.0f bytes, want 9 and <= 400", allocs, bytes)
		}
		warm.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// A connection a TaskHandler serves does not wait for one call's reply
// before it reads the next frame: calls the handler keeps are answered in
// whatever order it answers them, each to its own caller, and whoever sends
// the reply — here a process that has nothing to do with the connection —
// may do so at any later time. One call has one reply.
func TestTaskHandlerRepliesLaterAndOutOfOrder(t *testing.T) {
	sim, a, b := newPair(t)
	e := &contractEnv{t: t, sim: sim, a: a, b: b}
	var kept []*Call
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ServeTasks(sim, l, keeper{&kept})
	err = sim.Run("client", func() {
		c := e.dial()
		var released time.Duration
		sim.Go("releaser", func() {
			sim.Sleep(time.Second)
			released = sim.Now()
			if len(kept) != 3 {
				t.Errorf("%d calls reached the handler while none was answered, want all 3", len(kept))
				return
			}
			for i := len(kept) - 1; i >= 0; i-- { // last first
				kept[i].Reply(i, nil)
			}
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "second Reply") {
					t.Errorf("second Reply: recovered %q", msg)
				}
			}()
			kept[0].Reply(0, nil)
		})
		results, at := e.callers(c, 3, time.Minute)
		for i, err := range results {
			if err != nil || at[i] != released+ms {
				t.Errorf("caller %d: %v at %v, want nil one hop after the release", i, err, at[i])
			}
		}
		c.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// keeper keeps every call for someone else to answer.
type keeper struct{ kept *[]*Call }

func (k keeper) ServeCall(call *Call, method string, body json.RawMessage) {
	*k.kept = append(*k.kept, call)
}

func (keeper) HandleNotify(sc *ServerConn, method string, body json.RawMessage) {}

// What a task-served connection does differently from a process, said out
// loud: a reply to a client that has gone is sent nowhere and fails nothing
// (there is no process to end), and a handler that blocks is a bug the
// kernel names.
func TestTaskHandlerEdges(t *testing.T) {
	t.Run("reply after the client has gone", func(t *testing.T) {
		sim, a, b := newPair(t)
		e := &contractEnv{t: t, sim: sim, a: a, b: b}
		var kept []*Call
		l, err := b.Listen("svc")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		ServeTasks(sim, l, keeper{&kept})
		err = sim.Run("client", func() {
			c := e.dial()
			if err := c.Call("wait", nil, nil, time.Second); err != ErrTimeout {
				t.Errorf("Call = %v, want ErrTimeout", err)
			}
			c.Close()
			sim.Sleep(time.Second) // the close has reached the server
			msgs := a.Network().Messages()
			kept[0].Reply("too late", nil)
			sim.Sleep(time.Second)
			if sent := a.Network().Messages() - msgs; sent != 0 {
				t.Errorf("a reply to a closed connection put %d message(s) on the wire", sent)
			}
			// The service is none the worse for it.
			c2 := e.dial()
			sim.Go("answer", func() { sim.Sleep(ms * 10); kept[1].Reply("fine", nil) })
			var reply string
			if err := c2.Call("wait", nil, &reply, time.Second); err != nil || reply != "fine" {
				t.Errorf("call on a fresh connection = %q, %v", reply, err)
			}
			c2.Close()
		})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
	})
	t.Run("a handler that blocks panics", func(t *testing.T) {
		sim, a, b := newPair(t)
		e := &contractEnv{t: t, sim: sim, a: a, b: b}
		l, err := b.Listen("svc")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		var recovered string
		ServeTasks(sim, l, sleeper{sim: sim, recovered: &recovered})
		err = sim.Run("client", func() {
			c := e.dial()
			c.Call("sleep", nil, nil, time.Second)
			c.Close()
		})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		if !strings.Contains(recovered, "would block outside a simulated process") {
			t.Errorf("blocking in ServeCall: recovered %q", recovered)
		}
	})
}

// sleeper tries to sleep in its handler — and, for the test's sake only,
// recovers the kernel's panic on the spot, before it unwinds into the
// dispatcher, then answers.
type sleeper struct {
	sim       *vtime.Sim
	recovered *string
}

func (s sleeper) ServeCall(call *Call, method string, body json.RawMessage) {
	func() {
		defer func() { *s.recovered, _ = recover().(string) }()
		s.sim.Sleep(time.Second)
	}()
	call.Reply(nil, nil)
}

func (sleeper) HandleNotify(sc *ServerConn, method string, body json.RawMessage) {}
