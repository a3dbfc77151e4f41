package rpc

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
	"cogrid/internal/wire"
)

// echoTasks is a Handler that answers every call with its own body, in the
// step that reads it.
type echoTasks struct{}

func (echoTasks) ServeCall(call *Call, method string, body json.RawMessage) {
	call.Reply(rawBody(body), nil)
}

// rawBody is a reply body written as given.
type rawBody []byte

func (b rawBody) AppendJSON(dst []byte) []byte { return append(dst, b...) }

// pingBody is the priced calls' body: written and read by hand, as the
// production messages are (wire.JSON), so that what a test counts is rpc's
// and the transport's, and encoding/json — whose own pool of encode states
// the race detector empties at random — is not on the path.
type pingBody struct{ Text string }

func (p pingBody) AppendJSON(dst []byte) []byte { return wire.AppendJSON(dst, &p, (*pingBody).json) }
func (p *pingBody) ParseJSON(src []byte) bool   { return wire.ParseJSON(src, p, (*pingBody).json) }
func (p *pingBody) json(j *wire.JSON)           { j.String("text", &p.Text) }

// ping is the body every priced call sends.
var ping = &pingBody{Text: "ping"}

// What a call costs the kernel, counted (internal/transport's
// TestRoundTripCosts has the two timers and four delivery steps underneath).
// Nothing on the way owns a process unless something blocks: connecting
// spawns nothing, and a lone caller dispatches the whole round trip itself —
// four delivery steps, the server connection's step and the demux step run
// on its own stack while it waits, and the grant it ends with is its own, so
// no goroutine switch happens at all. That holds for a handler that answers
// through its Call (TaskHandler) and for functions adapted by HandlerFuncs
// (Handler) alike. A preamble blocks, so a connection that has one spawns a
// process to run it, once: the calls after it cost what they cost without.
// (With a process per connection end the call cost three switches and every
// connection two spawns; with a process per connection behind a blocking
// handler, two switches and one spawn.)
func TestCallCosts(t *testing.T) {
	echoFuncs := HandlerFuncs{Call: func(sc *ServerConn, method string, body json.RawMessage) (any, error) {
		return body, nil
	}}
	for _, tc := range []struct {
		name       string
		handler    Handler
		preamble   Preamble
		connSpawns int64
	}{
		{name: "TaskHandler", handler: echoTasks{}},
		{name: "Handler", handler: echoFuncs},
		{
			name:       "Preamble",
			handler:    echoTasks{},
			preamble:   func(conn *transport.Conn) (any, error) { return "admitted", nil },
			connSpawns: 1, // rpc-preamble
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
				Serve(sim, l, tc.handler, tc.preamble)
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
				if h, s, f, r := sim.Handoffs()-handoffs, sim.Spawned()-spawned, sim.TimersFired()-timers, sim.TasksRun()-steps; h != 0 || s != 0 || f != 2 || r != 6 {
					t.Errorf("one call: %d hand-offs, %d spawns, %d timers, %d task steps; want 0, 0, 2, 6", h, s, f, r)
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
// decoding included — on an unobserved network; and one more call on a
// connection that is already there. The client is one allocation (it was
// seven: the reply map, the notification queue and three name strings were
// the rest), the wait for the reply none (a channel and its ring were two,
// 592 bytes), the connection one block of 384 bytes, its two identities,
// with a pipe lent by the network (each dial allocated the pipe as well
// until the network kept them, 1 472 bytes of both ends and their first
// pipeline entries and inbox slots; the queues grew six times, 672 bytes,
// beside a 960-byte pair before that), and the two
// prologues none: every connection end sends one shared frame, uncopied
// (two allocations before).
// What the kernel is asked to do has not changed with any of that.
func TestOneShotExchangeCosts(t *testing.T) {
	sim, a, b := newPair(t)
	e := &contractEnv{t: t, sim: sim, a: a, b: b}
	err := sim.Run("client", func() {
		l, err := b.Listen("svc")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		Serve(sim, l, echoTasks{}, nil)
		var reply pingBody
		call := func(c *Client) {
			if err := c.Call("status", ping, &reply, time.Minute); err != nil || reply != *ping {
				t.Fatalf("Call = %+v, %v", reply, err)
			}
		}
		exchange := func() {
			c := e.dial()
			call(c)
			c.Close()
			sim.Sleep(5 * ms) // the FIN has landed; the server's end is closed
		}
		warm := e.dial()
		for i := 0; i < 10; i++ { // encode buffers, timer entries, run queue
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
		if allocs > 8 || bytes > 1350 { // 7.6 and 1 280, -race too; 7.6 and 2 432 while each dial allocated its pipe, 8.6 and 2 518–2 522 while an early-ended timeout left its entry filed, 12.6 and 2 663 with a string body, 18.6 and 2 822–2 857 before
			t.Errorf("dial + NewClient + call + Close: %.1f allocations and %.0f bytes, want <= 8 and <= 1350", allocs, bytes)
		}
		allocs, bytes = allocated(200, func() { call(warm) })
		t.Logf("a call on a warm connection: %.3f allocations, %.0f bytes", allocs, bytes)
		if allocs > 4.5 || bytes > 170 { // 4.005 and 152, -race too; 5.03 and 243 while the caller's timeout allocated its entry, 9 and 390 with a string body, 11 and 982 before
			t.Errorf("a call on a warm connection: %.1f allocations and %.0f bytes, want 4 and <= 170", allocs, bytes)
		}
		warm.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// A connection does not wait for one call's reply before it reads the next
// frame: calls the handler keeps are answered in whatever order it answers
// them, each to its own caller, and whoever sends the reply — here a process
// that has nothing to do with the connection — may do so at any later time.
// One call has one reply.
func TestTaskHandlerRepliesLaterAndOutOfOrder(t *testing.T) {
	sim, a, b := newPair(t)
	e := &contractEnv{t: t, sim: sim, a: a, b: b}
	var kept []*Call
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	Serve(sim, l, keeper{&kept}, nil)
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

// What a task-served connection does differently from a process, said out
// loud: a reply to a client that has gone is sent nowhere and fails nothing
// (there is no process to end), and a handler that blocks instead of
// spawning a process for the call is a bug the kernel names.
func TestTaskHandlerEdges(t *testing.T) {
	t.Run("reply after the client has gone", func(t *testing.T) {
		sim, a, b := newPair(t)
		e := &contractEnv{t: t, sim: sim, a: a, b: b}
		var kept []*Call
		l, err := b.Listen("svc")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		Serve(sim, l, keeper{&kept}, nil)
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
		Serve(sim, l, sleeper{sim: sim, recovered: &recovered}, nil)
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

// TestCallAllocs prices one call on an established connection under a valid
// request context, both ends included. Untraced, the call derives no
// context: its envelope and its reply carry none, and no span path, id
// digits or serve context is built (three strings a call while a nil
// tracer still derived contexts). Traced, every string the call puts in the trace or on
// the wire — the span paths, "call:echo" and "serve:echo", the correlation
// id and the hops' byte counts — comes from the tracer's string table,
// copied into it once: a repeated call allocates no string at all, and
// costs what the untraced one costs.
func TestCallAllocs(t *testing.T) {
	measure := func(sim *vtime.Sim, a, b *transport.Host) (allocs float64) {
		e := &contractEnv{t: t, sim: sim, a: a, b: b}
		err := sim.Run("client", func() {
			e.serve(echoTasks{})
			c := e.dial()
			ctx := trace.NewRequest("r1")
			var reply pingBody
			call := func() {
				if err := c.CallCtx(ctx, "echo", ping, &reply, time.Minute); err != nil || reply != *ping {
					t.Fatalf("echo = %+v, %v", reply, err)
				}
			}
			for i := 0; i < 200; i++ { // ids past 99, which strconv has ready-made
				call()
			}
			allocs = testing.AllocsPerRun(100, call)
			c.Close()
		})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		return allocs
	}
	sim, a, b := newPair(t)
	untraced := measure(sim, a, b)
	sim, _, _, a, b = newTracedPair(t)
	traced := measure(sim, a, b)
	t.Logf("one call: %.0f allocations untraced, %.0f traced", untraced, traced)
	// The frames of the call and the reply, the Call the server hands its
	// handler and the reply's body value: none of them a string. The
	// caller's timeout is the entry in its process descriptor; it was a
	// fifth allocation while a timeout that ended early stayed filed.
	if untraced != 4 {
		t.Errorf("an untraced call under a request context: %.0f allocations, want 4", untraced)
	}
	if traced != untraced {
		t.Errorf("a repeated traced call: %.0f allocations, want the untraced call's %.0f", traced, untraced)
	}
}
