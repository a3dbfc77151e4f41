package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// lifeConn is one connection the lifecycle driver dialed: both identities,
// the pipe end the client was lent, and per direction (0: client to server,
// 1: server to client) what was sent, received and expected next.
type lifeConn struct {
	id     int
	ends   [2]*Conn
	pipe   *pipeEnd
	sent   [2]int
	recv   [2]int
	expect [2]uint32
	armed  [2]*arrivalProbe
}

// arrivalProbe is a task registered for one end's next arrival: its step
// drains the end, as a receive task does, and does not register again.
type arrivalProbe struct {
	life *connLife
	c    *lifeConn
	k    int
	task vtime.Task
}

func (a *arrivalProbe) RunTask() {
	if a.c.armed[a.k] == a {
		a.c.armed[a.k] = nil
	}
	a.life.drain(a.c, a.k)
}

// acceptAll takes every connection a listener is offered and does nothing
// with it: the driver finds server ends through their clients.
type acceptAll struct {
	l    *Listener
	task vtime.Task
}

func (a *acceptAll) RunTask() {
	for {
		if _, err := a.l.TryAccept(); err != nil {
			if err == ErrWouldBlock {
				a.l.ReadyOnArrival(&a.task)
			}
			return
		}
	}
}

// connLife drives random connection lifecycles over three hosts and checks,
// after every step, that no identity reaches a pipe that serves another
// connection and that a pipe has gone back to the network exactly when it
// is quiet.
type connLife struct {
	t     *testing.T
	sim   *vtime.Sim
	net   *Network
	hosts [3]*Host
	conns []*lifeConn
}

var lifeHosts = [3]string{"a", "b", "c"}

func newConnLife(t *testing.T) *connLife {
	sim := vtime.NewSeeded(1)
	lat := NewMatrixLatency(time.Millisecond)
	lat.Set("b", "c", 3*time.Millisecond)
	lat.Set("a", "c", 2*time.Millisecond)
	net := New(sim, lat)
	net.SetCounters(trace.NewCounters())
	life := &connLife{t: t, sim: sim, net: net}
	for i, name := range lifeHosts {
		life.hosts[i] = net.AddHost(name)
		life.listen(i)
	}
	return life
}

func (life *connLife) listen(i int) {
	l, err := life.hosts[i].Listen("svc")
	if err != nil {
		life.t.Fatalf("Listen on %s: %v", lifeHosts[i], err)
	}
	a := &acceptAll{l: l}
	a.task.Init(life.sim, a)
	a.task.Ready()
}

// header is a message's own part: connection, direction, sequence number.
func header(id, dir int, seq uint32) []byte {
	b := make([]byte, 7)
	binary.BigEndian.PutUint16(b, uint16(id))
	b[2] = byte(dir)
	binary.BigEndian.PutUint32(b[3:], seq)
	return b
}

func (life *connLife) send(c *lifeConn, dir int, shared bool) {
	own := header(c.id, dir, uint32(c.sent[dir]))
	var err error
	if shared {
		part := bytes.Clone(own)
		err = c.ends[dir].SendShared(own, &part, trace.Ctx{})
	} else {
		err = c.ends[dir].Send(own)
	}
	switch err {
	case nil:
		c.sent[dir]++
	case ErrClosed:
		if !c.ends[dir].closed {
			life.t.Fatalf("conn %d: Send on an open end = ErrClosed", c.id)
		}
	case ErrHostDown:
	default:
		life.t.Fatalf("conn %d: Send = %v", c.id, err)
	}
}

// drain receives everything that has arrived at end k until the end would
// block or is closed and drained, checking each message belongs to this
// connection, comes from the other end, and follows the last in order.
func (life *connLife) drain(c *lifeConn, k int) {
	for {
		own, shared, err := c.ends[k].TryRecv()
		if err != nil {
			if err != ErrWouldBlock && err != ErrClosed {
				life.t.Fatalf("conn %d end %d: TryRecv = %v", c.id, k, err)
			}
			return
		}
		dir := 1 - k
		if len(own) != 7 || int(binary.BigEndian.Uint16(own)) != c.id || int(own[2]) != dir {
			life.t.Fatalf("conn %d end %d received %x, which is not this connection's from its peer", c.id, k, own)
		}
		if len(shared) != 0 && !bytes.Equal(shared, own) {
			life.t.Fatalf("conn %d end %d: shared part %x with own part %x", c.id, k, shared, own)
		}
		seq := binary.BigEndian.Uint32(own[3:])
		if seq < c.expect[dir] {
			life.t.Fatalf("conn %d direction %d: message %d after %d: out of order or twice", c.id, dir, seq, c.expect[dir]-1)
		}
		c.expect[dir] = seq + 1
		c.recv[dir]++
	}
}

// arm registers a probe task for end k's next arrival, unless one waits.
func (life *connLife) arm(c *lifeConn, k int) {
	if c.armed[k] != nil {
		return
	}
	a := &arrivalProbe{life: life, c: c, k: k}
	a.task.Init(life.sim, a)
	c.armed[k] = a
	c.ends[k].ReadyOnArrival(&a.task)
}

// stale calls every method of a connection whose pipe has gone back: each
// answers as a closed, drained end does, and nothing of any live
// connection changes.
func (life *connLife) stale(c *lifeConn) {
	before := life.snapshot()
	for k, e := range c.ends {
		own := header(c.id, k, 1<<31)
		if err := e.Send(own); err != ErrClosed {
			life.t.Fatalf("stale conn %d: Send = %v, want ErrClosed", c.id, err)
		}
		if err := e.SendShared(own, &own, trace.Ctx{}); err != ErrClosed {
			life.t.Fatalf("stale conn %d: SendShared = %v, want ErrClosed", c.id, err)
		}
		if _, err := e.Recv(); err != ErrClosed {
			life.t.Fatalf("stale conn %d: Recv = %v, want ErrClosed", c.id, err)
		}
		if _, err := e.RecvTimeout(time.Second); err != ErrClosed {
			life.t.Fatalf("stale conn %d: RecvTimeout = %v, want ErrClosed", c.id, err)
		}
		if _, _, err := e.TryRecv(); err != ErrClosed {
			life.t.Fatalf("stale conn %d: TryRecv = %v, want ErrClosed", c.id, err)
		}
		e.Close()
	}
	if after := life.snapshot(); after != before {
		life.t.Fatalf("stale conn %d's methods changed the live connections: %s, was %s", c.id, after, before)
	}
}

// snapshot renders what every live pipe holds.
func (life *connLife) snapshot() string {
	var b bytes.Buffer
	for _, c := range life.conns {
		for _, e := range c.ends {
			if p := e.p; p != nil {
				fmt.Fprintf(&b, "%d/%d ", len(p.out)-p.outHead, p.in.Len())
			}
		}
	}
	return b.String()
}

// quiet is the state a pipe goes back in, read from the fields it is made
// of: both ends closed, nothing in flight, no deliver task pending, both
// inboxes closed and empty. The driver never blocks in a receive, and a
// closed inbox has no task waiting for an arrival.
func quiet(c *lifeConn) bool {
	for _, e := range c.ends {
		p := e.p
		if !e.closed || len(p.out) != p.outHead || p.delivering || !p.in.IsClosed() || p.in.Len() != 0 {
			return false
		}
	}
	return true
}

// check holds the pipe invariants over every connection dialed so far.
func (life *connLife) check(step int) {
	lent := make(map[*pipeEnd]int)
	for _, c := range life.conns {
		client, server := c.ends[0], c.ends[1]
		if (client.p == nil) != (server.p == nil) {
			life.t.Fatalf("step %d: conn %d: one end has its pipe, the other not", step, c.id)
		}
		if client.p == nil {
			if !client.closed || !server.closed {
				life.t.Fatalf("step %d: conn %d's pipe went back with an end open", step, c.id)
			}
			if p := c.pipe; p.conn == nil && p.peer.conn == nil {
				for _, e := range [2]*pipeEnd{p, p.peer} {
					if e.delivering || e.sealed || len(e.out) != 0 || e.in.IsClosed() || e.in.Len() != 0 {
						life.t.Fatalf("step %d: conn %d's pipe is on the free list but not as new", step, c.id)
					}
				}
			}
			continue
		}
		for _, e := range c.ends {
			if e.p.conn != e {
				life.t.Fatalf("step %d: conn %d: an end reaches a pipe that serves another connection", step, c.id)
			}
			if other, ok := lent[e.p]; ok {
				life.t.Fatalf("step %d: conns %d and %d share a pipe end", step, other, c.id)
			}
			lent[e.p] = c.id
		}
		if quiet(c) {
			life.t.Fatalf("step %d: conn %d is quiet but its pipe was not taken back", step, c.id)
		}
	}
}

func (life *connLife) pick(arg byte) *lifeConn {
	if len(life.conns) == 0 {
		return nil
	}
	return life.conns[int(arg)%len(life.conns)]
}

// step runs one operation, op and arg as the fuzzer chose them.
func (life *connLife) step(op, arg byte) {
	h := int(arg) % 3
	switch op % 13 {
	case 0: // dial
		to := (int(arg) / 3) % 3
		conn, err := life.hosts[h].Dial(Addr{lifeHosts[to], "svc"})
		if err != nil {
			return
		}
		c := &lifeConn{id: len(life.conns), ends: [2]*Conn{conn, conn.peer}, pipe: conn.p}
		life.conns = append(life.conns, c)
	case 1, 2: // send, send in parts
		if c := life.pick(arg >> 1); c != nil {
			life.send(c, int(arg&1), op%13 == 2)
		}
	case 3: // close either end
		if c := life.pick(arg >> 1); c != nil {
			c.ends[arg&1].Close()
		}
	case 4:
		life.hosts[h].Crash()
	case 5: // restore
		if host := life.hosts[h]; host.state == hostCrashed {
			host.RestoreCrashed()
			life.listen(h)
		} else {
			host.Restore()
		}
	case 6:
		life.hosts[h].Hang()
	case 7:
		life.net.Partition(lifeHosts[h], lifeHosts[(h+1)%3])
	case 8:
		life.net.Heal(lifeHosts[h], lifeHosts[(h+1)%3])
	case 9: // advance
		life.sim.Sleep(time.Duration(1+arg%8) * 500 * time.Microsecond)
	case 10: // receive what has arrived
		if c := life.pick(arg >> 1); c != nil {
			life.drain(c, int(arg&1))
		}
	case 11: // arm a receive task
		if c := life.pick(arg >> 1); c != nil {
			life.arm(c, int(arg&1))
		}
	case 12: // every method of a connection whose pipe has gone back
		if c := life.pick(arg); c != nil && c.ends[0].p == nil {
			life.stale(c)
		}
	}
}

// finish closes every end, lets the FINs land, drains every end, and then
// requires every pipe back and every message accounted for: received once,
// or counted as dropped by the end that sent it.
func (life *connLife) finish() {
	for _, c := range life.conns {
		c.ends[0].Close()
		c.ends[1].Close()
	}
	life.sim.Sleep(time.Second)
	for _, c := range life.conns {
		life.drain(c, 0)
		life.drain(c, 1)
	}
	life.check(-1)
	for _, c := range life.conns {
		if c.ends[0].p != nil {
			life.t.Fatalf("conn %d: closed and drained, but its pipe was not taken back", c.id)
		}
		for dir, e := range c.ends {
			if dropped := int(e.stats.ctr[ctrDrop].Load()); c.recv[dir]+dropped != c.sent[dir] {
				life.t.Fatalf("conn %d direction %d: %d sent, %d received, %d dropped", c.id, dir, c.sent[dir], c.recv[dir], dropped)
			}
		}
		for k, a := range c.armed {
			if a != nil {
				life.t.Fatalf("conn %d end %d: an arrival task was never readied", c.id, k)
			}
		}
	}
}

// runConnLife plays ops (two bytes a step, at most 256 steps) on a fresh
// network.
func runConnLife(t *testing.T, ops []byte) {
	life := newConnLife(t)
	err := life.sim.Run("driver", func() {
		for i := 0; i+1 < len(ops) && i < 512; i += 2 {
			life.step(ops[i], ops[i+1])
			life.check(i / 2)
		}
		life.finish()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// FuzzConnLifecycle drives random streams of dial, send, send in parts,
// close either end, crash, restore, hang, partition, heal, advance, receive
// and arrival registration over three hosts, and calls every method of
// connections whose pipes have gone back. Every message sent is received
// once, in order, on its own connection, or counted as dropped; no identity
// reaches a pipe that serves another connection; and a pipe goes back to
// the network exactly when it is quiet. Its seeds are in
// testdata/fuzz/FuzzConnLifecycle.
func FuzzConnLifecycle(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) { runConnLife(t, ops) })
}

// TestStaleEndAfterReuse: once a connection's pipe has gone back and serves
// the next connection, each method of the old ends answers as a closed,
// drained end — Send, SendCtx and SendShared and every receive ErrClosed,
// ReadyOnArrival readies its task at once, Close does nothing — and counts
// what a closed end that still has its pipe counts: nothing. The new
// connection receives nothing from them.
func TestStaleEndAfterReuse(t *testing.T) {
	sim, net, a, b := testNet(t)
	ctrs := trace.NewCounters()
	net.SetCounters(ctrs)
	l, err := b.Listen("echo")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() {
		for {
			conn, ok := l.Accept()
			if !ok {
				return
			}
			sim.GoDaemon("echo", func() {
				for {
					msg, err := conn.Recv()
					if err != nil {
						conn.Close()
						return
					}
					conn.Send(msg)
				}
			})
		}
	})
	// everything calls each method of the ends of c and returns what they
	// answered, and whether the arrival task ran at once.
	everything := func(c *Conn) (answers []error, readied bool) {
		for _, e := range [2]*Conn{c, c.peer} {
			shared := []byte("shared")
			answers = append(answers,
				e.Send([]byte("stale")),
				e.SendCtx([]byte("stale"), trace.NewRequest("r")),
				e.SendShared([]byte("stale"), &shared, trace.Ctx{}))
			_, err := e.Recv()
			answers = append(answers, err)
			_, err = e.RecvTimeout(time.Second)
			answers = append(answers, err)
			_, _, err = e.TryRecv()
			answers = append(answers, err)
			e.Close()
		}
		ran := time.Duration(-1)
		var task vtime.Task
		task.Init(sim, runnerFunc(func() { ran = sim.Now() }))
		c.ReadyOnArrival(&task)
		at := sim.Now()
		sim.Sleep(time.Microsecond)
		return answers, ran == at
	}
	err = sim.Run("client", func() {
		exchange := func() *Conn {
			conn, err := a.Dial(Addr{"b", "echo"})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			if err := conn.Send([]byte("ping")); err != nil {
				t.Fatalf("Send: %v", err)
			}
			if reply, err := conn.Recv(); err != nil || string(reply) != "ping" {
				t.Fatalf("echo = %q, %v", reply, err)
			}
			return conn
		}

		// A closed end that still has its pipe: the client's, the FIN on
		// its way.
		closing := exchange()
		closing.Close()
		if closing.p == nil {
			t.Fatal("the pipe went back with the FIN in flight")
		}
		before := ctrs.Snapshot()
		shared := []byte("shared")
		closedAnswers := []error{
			closing.Send([]byte("stale")),
			closing.SendCtx([]byte("stale"), trace.NewRequest("r")),
			closing.SendShared([]byte("stale"), &shared, trace.Ctx{}),
		}
		closedCount := diff(before, ctrs.Snapshot())
		sim.Sleep(10 * time.Millisecond) // the FIN lands, the echo closes; the pipe goes back
		if closing.p != nil || closing.peer.p != nil {
			t.Fatal("a closed, drained connection kept its pipe")
		}

		old := exchange()
		pipe := old.p
		old.Close()
		sim.Sleep(10 * time.Millisecond)
		next := exchange() // the same pipe, lent again
		if next.p != pipe && next.p != pipe.peer {
			t.Fatal("the next dial did not reuse the pipe that went back")
		}
		before = ctrs.Snapshot()
		answers, readied := everything(old)
		staleCount := diff(before, ctrs.Snapshot())
		for i, err := range answers {
			if err != ErrClosed {
				t.Errorf("stale method %d answered %v, want ErrClosed", i, err)
			}
		}
		for i, err := range closedAnswers {
			if err != answers[i] {
				t.Errorf("send %d: a closed end answers %v, a stale one %v", i, err, answers[i])
			}
		}
		if !readied {
			t.Error("ReadyOnArrival on a stale end did not ready its task at once")
		}
		if staleCount != closedCount {
			t.Errorf("stale sends counted %q, a closed end's sends %q", staleCount, closedCount)
		}
		if next.closed || next.peer.closed || next.p.conn != next || next.p.peer.conn != next.peer {
			t.Error("the stale ends' Close reached the connection that has their pipe")
		}
		if n := next.p.in.Len() + next.p.peer.in.Len(); n != 0 {
			t.Errorf("%d message(s) wait on the new connection after the stale sends", n)
		}
		if err := next.Send([]byte("next")); err != nil {
			t.Fatalf("Send on the new connection: %v", err)
		}
		if reply, err := next.Recv(); err != nil || string(reply) != "next" {
			t.Errorf("the new connection's echo = %q, %v; want its own message", reply, err)
		}
		if reply, err := next.RecvTimeout(10 * time.Millisecond); err != ErrRecvTimeout {
			t.Errorf("the new connection received %q, %v after its echo; want nothing", reply, err)
		}
		next.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// runnerFunc is a task body made of a function.
type runnerFunc func()

func (f runnerFunc) RunTask() { f() }

// diff renders the counters that moved between two snapshots.
func diff(before, after []trace.CounterValue) string {
	was := make(map[string]int64, len(before))
	for _, c := range before {
		was[c.Name] = c.Value
	}
	var b bytes.Buffer
	for _, c := range after {
		if c.Value != was[c.Name] {
			b.WriteString(c.Name + " ")
		}
	}
	return b.String()
}
