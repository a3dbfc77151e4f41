package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// arrival is one thing a server end observed: a payload, or "closed" for
// the ErrClosed that ends its receive loop.
type arrival struct {
	At   time.Duration
	What string
}

const ms = time.Millisecond

// deliveryEnv is what a delivery case's client script gets to work with.
type deliveryEnv struct {
	t    *testing.T
	sim  *vtime.Sim
	net  *Network
	lat  *MatrixLatency
	a, b *Host
	// dial opens one more connection from a to the service; the server end
	// records under the returned index.
	dial func(to string) *Conn
}

// TestDeliveryContract pins what a connection promises about delivery —
// order, instants, loss accounting, close — and how many kernel timers it
// spends doing so, case by case. The timer totals are the delivery
// pipeline's (one per distinct delivery instant per connection end) plus
// the script's own sleeps and the dials' two each; they hold for any
// implementation of the pipeline that fires as often as a per-connection
// process sleeping until each head's delivery time would.
func TestDeliveryContract(t *testing.T) {
	cases := []struct {
		name   string
		client func(e *deliveryEnv)
		// want is each server end's observations, in dial order.
		want [][]arrival
		// drops is transport.drop.<reason>@a after the run.
		drops  map[string]int64
		timers int64
	}{
		{
			// The path gets shorter while m1 is on it: m2's own delivery time
			// is earlier than m1's, and it still arrives second, at m1's.
			name: "fifo across a latency change mid-flight",
			client: func(e *deliveryEnv) {
				c := e.dial("b")
				e.lat.Set("a", "b", 10*ms)
				c.Send([]byte("m1")) // due at 3ms+10ms
				e.lat.Set("a", "b", 2*ms)
				e.sim.Sleep(ms)
				c.Send([]byte("m2")) // due at 4ms+2ms
				e.sim.Sleep(20 * ms)
				c.Send([]byte("m3"))
				e.sim.Sleep(20 * ms)
			},
			want:   [][]arrival{{{13 * ms, "m1"}, {13 * ms, "m2"}, {26 * ms, "m3"}}},
			timers: 2 + 3 + 2, // dial; sleeps; m1+m2 share a firing, m3 has its own
		},
		{
			name: "fin after the last data",
			client: func(e *deliveryEnv) {
				c := e.dial("b")
				for _, m := range []string{"one", "two", "three"} {
					c.Send([]byte(m))
				}
				c.Close()
				if err := c.Send([]byte("late")); err != ErrClosed {
					e.t.Errorf("Send after Close = %v, want ErrClosed", err)
				}
				e.sim.Sleep(5 * ms)
			},
			want:   [][]arrival{{{4 * ms, "one"}, {4 * ms, "two"}, {4 * ms, "three"}, {4 * ms, "closed"}}},
			timers: 2 + 1 + 1, // data and FIN share one firing
		},
		{
			// Same host: no wire time, so no timer — and the send returns
			// before the delivery happens (the receiver runs when the sender
			// next blocks, never inside Send).
			name: "same-host zero latency",
			client: func(e *deliveryEnv) {
				c := e.dial("a")
				before := e.sim.TimersFired()
				c.Send([]byte("local"))
				c.Send([]byte("again"))
				if got := c.p.peer.in.Len(); got != 0 {
					e.t.Errorf("%d message(s) in the peer's inbox when Send returned: delivery ran inside Send", got)
				}
				reply, err := c.RecvTimeout(ms) // the server echoes "local" once
				if err != nil || string(reply) != "echo" {
					e.t.Errorf("echo = %q, %v", reply, err)
				}
				if fired := e.sim.TimersFired() - before; fired != 0 {
					e.t.Errorf("a same-host round trip fired %d timers, want 0", fired)
				}
				c.Close()
				e.sim.Sleep(ms)
			},
			want:   [][]arrival{{{ms, "local"}, {ms, "again"}, {ms, "closed"}}},
			timers: 0 + 1, // a same-host dial sleeps zero twice
		},
		{
			name: "partition raised while a message is in flight",
			client: func(e *deliveryEnv) {
				c := e.dial("b")
				c.Send([]byte("lost"))
				e.sim.Sleep(ms / 2)
				e.net.Partition("a", "b")
				e.sim.Sleep(5 * ms)
				e.net.Heal("a", "b")
				c.Send([]byte("kept"))
				e.sim.Sleep(5 * ms)
			},
			want:   [][]arrival{{{9500 * time.Microsecond, "kept"}}},
			drops:  map[string]int64{"in-flight": 1},
			timers: 2 + 3 + 2,
		},
		{
			// One message is on its way and 4 095 wait behind it; the rest
			// are counted lost, and the close still gets through.
			name: "4095 pending then sendq-full, fin still delivered",
			client: func(e *deliveryEnv) {
				c := e.dial("b")
				for i := 0; i < 4096+7; i++ {
					c.Send([]byte{byte(i)})
				}
				c.Close()
				e.sim.Sleep(5 * ms)
			},
			want:   [][]arrival{append(repeatArrivals(4*ms, 4096), arrival{4 * ms, "closed"})},
			drops:  map[string]int64{"sendq-full": 7},
			timers: 2 + 1 + 1,
		},
		{
			// A crash closes the host's connections in the order they were
			// established, whatever order the host's map yields them in.
			name: "crash sweep closes in establishment order",
			client: func(e *deliveryEnv) {
				for i := 0; i < 8; i++ {
					e.dial("b")
					e.sim.Sleep(ms)
				}
				e.a.Crash()
				e.sim.Sleep(5 * ms)
			},
			want: [][]arrival{
				{{26 * ms, "closed"}}, {{26 * ms, "closed"}}, {{26 * ms, "closed"}}, {{26 * ms, "closed"}},
				{{26 * ms, "closed"}}, {{26 * ms, "closed"}}, {{26 * ms, "closed"}}, {{26 * ms, "closed"}},
			},
			timers: 8*2 + 9 + 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.New()
			lat := NewMatrixLatency(ms)
			net := New(sim, lat)
			tr, ctrs := trace.New(sim), trace.NewCounters()
			net.SetTracer(tr)
			net.SetCounters(ctrs)
			e := &deliveryEnv{t: t, sim: sim, net: net, lat: lat, a: net.AddHost("a"), b: net.AddHost("b")}

			var got [][]arrival
			var closeOrder []int
			serve := func(h *Host) {
				l, err := h.Listen("svc")
				if err != nil {
					t.Fatalf("Listen: %v", err)
				}
				sim.GoDaemon("accept@"+h.Name(), func() {
					for {
						conn, ok := l.Accept()
						if !ok {
							return
						}
						idx := len(got)
						got = append(got, nil)
						sim.GoDaemon("serve", func() {
							for {
								msg, err := conn.Recv()
								if err != nil {
									got[idx] = append(got[idx], arrival{sim.Now(), "closed"})
									closeOrder = append(closeOrder, idx)
									return
								}
								got[idx] = append(got[idx], arrival{sim.Now(), string(msg)})
								if string(msg) == "local" {
									conn.Send([]byte("echo"))
								}
							}
						})
					}
				})
			}
			serve(e.a)
			serve(e.b)
			e.dial = func(to string) *Conn {
				c, err := e.a.Dial(Addr{to, "svc"})
				if err != nil {
					t.Fatalf("Dial: %v", err)
				}
				return c
			}
			if err := sim.Run("client", func() {
				sim.Sleep(ms) // the listeners' accept loops come up
				tc.client(e)
			}); err != nil {
				t.Fatalf("sim: %v", err)
			}

			want := tc.want
			if len(want) == 1 && len(want[0]) > 100 { // single-byte payloads: compare as strings
				for i := range got[0] {
					if got[0][i].What != "closed" {
						got[0][i].What = "x"
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("server ends observed\n got %v\nwant %v", got, want)
			}
			for i, idx := range closeOrder {
				if i != idx {
					t.Errorf("connections closed in order %v, want establishment order", closeOrder)
					break
				}
			}
			for _, reason := range []string{"unreachable", "in-flight", "overflow", "sendq-full", "conn-closed"} {
				if got, want := ctrs.Get(trace.Key("transport", "drop", reason, "a")), tc.drops[reason]; got != want {
					t.Errorf("transport.drop.%s@a = %d, want %d", reason, got, want)
				}
			}
			// Every send has a hop span, and a recv or a drop.
			sent := ctrs.Get(trace.Key("transport", "msgs", "send", "a"))
			recvd := ctrs.Get(trace.Key("transport", "msgs", "recv", "a")) + ctrs.Get(trace.Key("transport", "msgs", "recv", "b"))
			lost := ctrs.Get(trace.Key("transport", "msgs", "drop", "a"))
			hops := int64(0)
			for _, ev := range tr.Events() {
				if ev.Cat == "transport" && ev.Name == "hop" {
					hops++
				}
			}
			if sent != recvd+lost || hops != sent {
				t.Errorf("sent %d, received %d, lost %d, hop spans %d: a message is unaccounted for", sent, recvd, lost, hops)
			}
			if got := sim.TimersFired() - 1; got != tc.timers { // less the script's leading sleep
				t.Errorf("run fired %d timers, want %d", got, tc.timers)
			}
		})
	}
}

func repeatArrivals(at time.Duration, n int) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{at, "x"}
	}
	return out
}

// What a message costs the kernel, counted: a connection owns no process,
// so dialing spawns none, and one request/reply on an established
// connection is two timers (one per direction) and two goroutine switches
// (into the server and back) — the delivery steps in between run on the
// stacks of the two processes that block. Observing the connection — a
// tracer, counters and histograms attached — adds events and counts and
// not one timer, step or switch.
func TestRoundTripCosts(t *testing.T) {
	for _, observed := range []bool{false, true} {
		t.Run(fmt.Sprintf("observed=%t", observed), func(t *testing.T) {
			sim, net, a, b := testNet(t)
			tr, ctrs := trace.New(sim), trace.NewCounters()
			if observed {
				net.SetTracer(tr)
				net.SetCounters(ctrs)
				net.SetHists(metrics.NewHistogramSet())
			}
			l, err := b.Listen("echo")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			sim.GoDaemon("server", func() {
				conn, ok := l.Accept()
				if !ok {
					return
				}
				for {
					msg, err := conn.Recv()
					if err != nil {
						return
					}
					conn.Send(msg)
				}
			})
			err = sim.Run("client", func() {
				spawned := sim.Spawned()
				conn, err := a.Dial(Addr{"b", "echo"})
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				if got := sim.Spawned() - spawned; got != 0 {
					t.Errorf("Dial spawned %d process(es), want 0", got)
				}
				conn.Send([]byte("warm")) // the server is in Recv on this connection from here on
				conn.Recv()
				handoffs, timers, tasks, events := sim.Handoffs(), sim.TimersFired(), sim.TasksRun(), tr.Len()
				conn.Send([]byte("ping"))
				if reply, err := conn.Recv(); err != nil || string(reply) != "ping" {
					t.Errorf("echo = %q, %v", reply, err)
				}
				if h, s, f := sim.Handoffs()-handoffs, sim.Spawned()-spawned, sim.TimersFired()-timers; h != 2 || s != 0 || f != 2 {
					t.Errorf("one round trip: %d hand-offs, %d spawns, %d timers; want 2, 0, 2", h, s, f)
				}
				// Each direction's pipeline steps twice: readied by the send to arm
				// its timer, fired to deliver.
				if got := sim.TasksRun() - tasks; got != 4 {
					t.Errorf("one round trip ran %d task steps, want 4", got)
				}
				// A hop span and a recv instant each way.
				if got := tr.Len() - events; observed && got != 4 {
					t.Errorf("one observed round trip recorded %d events, want 4", got)
				}
				conn.Close()
			})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			if !observed {
				return
			}
			// Sends count against the sender's host, deliveries against the
			// receiver's, each direction against its own end.
			for name, want := range map[string]int64{
				"transport.msgs.send@a":                          2,
				"transport.msgs.recv@b":                          2,
				"transport.bytes.send@b":                         8,
				"transport.bytes.recv@a":                         8,
				"transport.conn.send@a:client->b:echo@1000":      2,
				"transport.conn.recv@b:echo->a:client@1000":      2,
				"transport.conn.recvbytes@a:client->b:echo@1000": 8,
				"transport.conn.drop@a:client->b:echo@1000":      0,
			} {
				if got := ctrs.Get(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// A connection that always has a message in flight never drains its
// pipeline, so the storage behind it must be bounded by what is in flight,
// not by how much has ever been sent.
func TestPipelineStorageBoundedWhenNeverIdle(t *testing.T) {
	for _, inFlight := range []int{4, 3000} {
		t.Run(fmt.Sprint(inFlight, " in flight"), func(t *testing.T) {
			sim, _, a, b := testNet(t) // 1 ms one way
			l, err := b.Listen("sink")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			const sends = 20 * maxInFlight
			received := 0
			sim.GoDaemon("server", func() {
				conn, ok := l.Accept()
				if !ok {
					return
				}
				for {
					msg, err := conn.Recv()
					if err != nil {
						return
					}
					if want := byte(received); msg[0] != want {
						t.Errorf("message %d carries %d, want %d: out of order", received, msg[0], want)
					}
					received++
				}
			})
			err = sim.Run("client", func() {
				conn, err := a.Dial(Addr{"b", "sink"})
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				gap := ms / time.Duration(inFlight)
				peak, storage := 0, 0
				for i := 0; i < sends; i++ {
					conn.Send([]byte{byte(i)})
					peak = max(peak, len(conn.p.out)-conn.p.outHead)
					storage = max(storage, cap(conn.p.out))
					sim.Sleep(gap)
				}
				if peak < inFlight || peak >= maxInFlight {
					t.Errorf("peak %d in flight, want about %d: the pipeline was not kept busy", peak, inFlight)
				}
				if storage > 4*peak+8 {
					t.Errorf("pipeline storage reached %d slots for a peak of %d in flight", storage, peak)
				}
				sim.Sleep(2 * ms)
				conn.Close()
			})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			if received != sends {
				t.Errorf("received %d of %d", received, sends)
			}
		})
	}
}

// A connection pair holds each end's first two pipeline entries and first
// four inbox slots. An end that has more in flight, or an inbox that holds
// more unread, moves to the heap; a pipeline that never drains slides within
// its two. Either way each message arrives once, in order, as it was sent.
func TestFirstSlotsSpillInOrder(t *testing.T) {
	sim, _, a, b := testNet(t) // 1 ms one way
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 1+7*i) }
	// expect reads n messages from conn and checks each against payload(i).
	expect := func(who string, conn *Conn, n int) {
		for i := 0; i < n; i++ {
			got, err := conn.Recv()
			if err != nil || !bytes.Equal(got, payload(i)) {
				t.Errorf("%s: message %d = %q, %v; want %q", who, i, got, err, payload(i))
			}
		}
	}
	const burst, stream = 8, 12
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		sim.Sleep(50 * ms) // the burst waits in the inbox, eight deep
		if n := conn.p.in.Len(); n != burst {
			t.Errorf("server inbox holds %d unread, want %d", n, burst)
		}
		expect("server", conn, burst)
		for i := 0; i < stream; i++ { // never more than two in flight: 1 ms one way, one send every 0.6 ms
			conn.Send(payload(i))
			if cap(conn.p.out) != 2 {
				t.Errorf("send %d: the server's pipeline has %d slots, want its first 2", i, cap(conn.p.out))
			}
			sim.Sleep(600 * time.Microsecond)
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		for i := 0; i < burst; i++ {
			conn.Send(payload(i))
		}
		if n := len(conn.p.out) - conn.p.outHead; n != burst {
			t.Errorf("%d messages in flight after the burst, want %d", n, burst)
		}
		sim.Sleep(100 * ms) // the stream waits in the inbox, twelve deep
		if n := conn.p.in.Len(); n != stream {
			t.Errorf("client inbox holds %d unread, want %d", n, stream)
		}
		expect("client", conn, stream)
		conn.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// taskServer accepts and echoes without a process: one task on the
// listener, one per connection, each readied by an arrival and draining
// what has arrived without waiting.
type taskServer struct {
	sim    *vtime.Sim
	l      *Listener
	accept vtime.Task
	conns  []*taskEcho
	closed bool // the listener's close has been seen
}

func (s *taskServer) RunTask() {
	for {
		conn, err := s.l.TryAccept()
		switch err {
		case nil:
			e := &taskEcho{conn: conn}
			e.task.Init(s.sim, e)
			e.task.Ready()
			s.conns = append(s.conns, e)
		case ErrWouldBlock:
			s.l.ReadyOnArrival(&s.accept)
			return
		default:
			s.closed = true
			return
		}
	}
}

type taskEcho struct {
	conn   *Conn
	task   vtime.Task
	closed bool // the connection's close has been seen
}

func (e *taskEcho) RunTask() {
	for {
		msg, _, err := e.conn.TryRecv()
		switch err {
		case nil:
			e.conn.Send(msg)
		case ErrWouldBlock:
			e.conn.ReadyOnArrival(&e.task)
			return
		default:
			e.closed = true
			return
		}
	}
}

// The receive side of a connection, and of a listener, can belong to a task
// instead of a process: TryAccept and TryRecv tell "nothing yet" from
// "closed", ReadyOnArrival readies the task for the next arrival or the
// close, and a lone client then dispatches a whole echo itself.
func TestTaskOwnsReceiveSide(t *testing.T) {
	sim, _, a, b := testNet(t)
	l, err := b.Listen("echo")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := &taskServer{sim: sim, l: l}
	srv.accept.Init(sim, srv)
	srv.accept.Ready()
	err = sim.Run("client", func() {
		spawned := sim.Spawned()
		conn, err := a.Dial(Addr{"b", "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		if _, _, err := conn.TryRecv(); err != ErrWouldBlock {
			t.Errorf("TryRecv on an idle connection = %v, want ErrWouldBlock", err)
		}
		handoffs := sim.Handoffs()
		for _, m := range []string{"one", "two"} {
			conn.Send([]byte(m))
			if reply, err := conn.Recv(); err != nil || string(reply) != m {
				t.Errorf("echo of %q = %q, %v", m, reply, err)
			}
		}
		if h, s := sim.Handoffs()-handoffs, sim.Spawned()-spawned; h != 0 || s != 0 {
			t.Errorf("dial and two echoes: %d hand-offs, %d spawns; want 0, 0", h, s)
		}
		conn.Close()
		l.Close()
		sim.Sleep(5 * ms)
		if len(srv.conns) != 1 || !srv.conns[0].closed || !srv.closed {
			t.Errorf("after both closes: %d connection(s), server saw the listener close: %v", len(srv.conns), srv.closed)
		}
		if _, _, err := conn.TryRecv(); err != ErrClosed {
			t.Errorf("TryRecv on a closed connection = %v, want ErrClosed", err)
		}
		if _, err := l.TryAccept(); err != ErrClosed {
			t.Errorf("TryAccept on a closed listener = %v, want ErrClosed", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
