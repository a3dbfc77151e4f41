package transport

import (
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// testNet builds a network with hosts a and b at 1ms one-way latency.
func testNet(t *testing.T) (*vtime.Sim, *Network, *Host, *Host) {
	t.Helper()
	sim := vtime.New()
	net := New(sim, UniformLatency(time.Millisecond))
	return sim, net, net.AddHost("a"), net.AddHost("b")
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in      string
		want    Addr
		wantErr bool
	}{
		{"host1:gram", Addr{"host1", "gram"}, false},
		{"h:svc:extra", Addr{"h", "svc:extra"}, false},
		{"nohost", Addr{}, true},
		{":svc", Addr{}, true},
		{"host:", Addr{}, true},
		{"", Addr{}, true},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseAddr(%q) error = %v, wantErr %t", c.in, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDialCostsOneRoundTrip(t *testing.T) {
	sim, _, a, b := testNet(t)
	sim.GoDaemon("server", func() {
		l, err := b.Listen("echo")
		if err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		for {
			if _, ok := l.Accept(); !ok {
				return
			}
		}
	})
	err := sim.Run("client", func() {
		sim.Sleep(time.Millisecond) // let the server come up
		start := sim.Now()
		conn, err := a.Dial(Addr{"b", "echo"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		if rtt := sim.Now() - start; rtt != 2*time.Millisecond {
			t.Errorf("dial took %v, want 2ms (one RTT)", rtt)
		}
		conn.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSendRecvLatencyAndOrder(t *testing.T) {
	sim, _, a, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		for i := 0; i < 3; i++ {
			msg, err := conn.Recv()
			if err != nil {
				t.Errorf("server Recv: %v", err)
				return
			}
			if want := byte('0' + i); msg[0] != want {
				t.Errorf("message %d = %q, want %q", i, msg[0], want)
			}
		}
		if got := sim.Now(); got != 3*time.Millisecond {
			// dial RTT 2ms + 1ms transfer; all three sends at t=2ms.
			t.Errorf("last message at %v, want 3ms", got)
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		for i := 0; i < 3; i++ {
			if err := conn.Send([]byte{byte('0' + i)}); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
		sim.Sleep(10 * time.Millisecond) // keep the connection open for delivery
		conn.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// A delivered payload is the receiver's. Send copies what it is given, so
// whatever the sender writes into its buffer afterwards does not arrive;
// SendShared hands over bytes that nobody writes again as they are, and
// every connection it is used on delivers those same bytes: a message's own
// part, and its shared part, the one array every connection delivers. The
// network counts a message in parts at its whole length.
func TestSendPayloadOwnership(t *testing.T) {
	sim, n, a, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	shared := []byte("one frame for every connection")
	err = sim.Run("client", func() {
		for i := 0; i < 2; i++ {
			conn, err := a.Dial(l.Addr())
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			peer, ok := l.Accept()
			if !ok {
				t.Error("Accept: listener closed")
				return
			}
			buf := []byte("as sent")
			if err := conn.Send(buf); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
			copy(buf, "written")
			own := []byte("own")
			msgs0, bytes0 := n.Messages(), n.Bytes()
			if err := conn.SendShared(own, &shared, trace.Ctx{}); err != nil {
				t.Errorf("SendShared: %v", err)
				return
			}
			if dm, db := n.Messages()-msgs0, n.Bytes()-bytes0; dm != 1 || db != int64(len(own)+len(shared)) {
				t.Errorf("connection %d: SendShared counted %d messages of %d bytes, want 1 of %d", i, dm, db, len(own)+len(shared))
			}
			if got, err := peer.Recv(); err != nil || string(got) != "as sent" {
				t.Errorf("connection %d: Send delivered %q, %v; want the payload as it was at the send", i, got, err)
			}
			gotOwn, gotShared, err := peer.TryRecv()
			if err != nil || &gotOwn[0] != &own[0] || len(gotShared) != len(shared) || &gotShared[0] != &shared[0] {
				t.Errorf("connection %d: SendShared delivered %q and %q, %v; want the sender's bytes themselves", i, gotOwn, gotShared, err)
			}
			conn.Close()
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestDialMissingServiceRefused(t *testing.T) {
	sim, _, a, _ := testNet(t)
	err := sim.Run("client", func() {
		_, err := a.Dial(Addr{"b", "nosuch"})
		if err != ErrRefused {
			t.Errorf("Dial = %v, want ErrRefused", err)
		}
		if sim.Now() != 2*time.Millisecond {
			t.Errorf("refusal took %v, want one RTT", sim.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestDialCrashedHostTimesOut(t *testing.T) {
	sim, _, a, b := testNet(t)
	err := sim.Run("client", func() {
		b.Crash()
		start := sim.Now()
		_, err := a.Dial(Addr{"b", "svc"})
		if err != ErrDialTimeout {
			t.Errorf("Dial = %v, want ErrDialTimeout", err)
		}
		if took := sim.Now() - start; took != DialTimeout {
			t.Errorf("dial failed after %v, want %v", took, DialTimeout)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCrashClosesPeerConnections(t *testing.T) {
	sim, _, a, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() {
		for {
			if _, ok := l.Accept(); !ok {
				return
			}
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		sim.AfterFunc(5*time.Millisecond, func() { b.Crash() })
		_, err = conn.RecvTimeout(time.Minute)
		if err != ErrClosed {
			t.Errorf("Recv after crash = %v, want ErrClosed (crash is detectable)", err)
		}
		if sim.Now() >= time.Minute {
			t.Errorf("crash not detected promptly: t=%v", sim.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestHangDropsTrafficSilently(t *testing.T) {
	sim, _, a, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() {
		for {
			if _, ok := l.Accept(); !ok {
				return
			}
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		b.Hang()
		if err := conn.Send([]byte("lost")); err != nil {
			t.Errorf("Send to hung host errored: %v (hang must be silent)", err)
		}
		_, err = conn.RecvTimeout(5 * time.Second)
		if err != ErrRecvTimeout {
			t.Errorf("Recv = %v, want ErrRecvTimeout (hang shows as lack of progress)", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestHangThenRestoreResumesDelivery(t *testing.T) {
	sim, _, a, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	got := vtime.NewChan[string](sim, "got", 1)
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		msg, err := conn.Recv()
		if err == nil {
			got.Send(string(msg))
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		b.Hang()
		b.Restore()
		if err := conn.Send([]byte("after")); err != nil {
			t.Errorf("Send: %v", err)
		}
		msg, _ := got.Recv()
		if msg != "after" {
			t.Errorf("delivered %q, want after", msg)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestPartitionDropsBothDirections(t *testing.T) {
	sim, net, a, b := testNet(t)
	l, err := b.Listen("svc")
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
			if err := conn.Send(append([]byte("echo:"), msg...)); err != nil {
				return
			}
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		net.Partition("a", "b")
		if !net.Partitioned("a", "b") || !net.Partitioned("b", "a") {
			t.Error("Partitioned not symmetric")
		}
		conn.Send([]byte("x"))
		if _, err := conn.RecvTimeout(time.Second); err != ErrRecvTimeout {
			t.Errorf("Recv during partition = %v, want timeout", err)
		}
		net.Heal("a", "b")
		conn.Send([]byte("y"))
		msg, err := conn.RecvTimeout(time.Second)
		if err != nil || string(msg) != "echo:y" {
			t.Errorf("after heal got %q, %v; want echo:y", msg, err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestDialThroughPartitionTimesOut(t *testing.T) {
	sim, net, a, b := testNet(t)
	if _, err := b.Listen("svc"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	err := sim.Run("client", func() {
		net.Partition("a", "b")
		_, err := a.Dial(Addr{"b", "svc"})
		if err != ErrDialTimeout {
			t.Errorf("Dial through partition = %v, want timeout", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCloseSignalsPeerAfterLatency(t *testing.T) {
	sim, _, a, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	closedAt := vtime.NewChan[time.Duration](sim, "closedAt", 1)
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		if _, err := conn.Recv(); err == ErrClosed {
			closedAt.Send(sim.Now())
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		closeTime := sim.Now()
		conn.Close()
		conn.Close() // idempotent
		at, _ := closedAt.Recv()
		if at != closeTime+time.Millisecond {
			t.Errorf("peer observed close at %v, want %v", at, closeTime+time.Millisecond)
		}
		if err := conn.Send([]byte("x")); err != ErrClosed {
			t.Errorf("Send after close = %v, want ErrClosed", err)
		}
		if _, err := conn.Recv(); err != ErrClosed {
			t.Errorf("Recv after close = %v, want ErrClosed", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSameHostZeroLatency(t *testing.T) {
	sim := vtime.New()
	net := New(sim, UniformLatency(time.Millisecond))
	a := net.AddHost("a")
	l, err := a.Listen("local")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		msg, err := conn.Recv()
		if err == nil {
			conn.Send(msg)
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"a", "local"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		conn.Send([]byte("ping"))
		if _, err := conn.Recv(); err != nil {
			t.Errorf("Recv: %v", err)
		}
		if sim.Now() != 0 {
			t.Errorf("same-host round trip advanced time to %v", sim.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestMatrixLatency(t *testing.T) {
	m := NewMatrixLatency(5 * time.Millisecond)
	m.Set("x", "y", 50*time.Millisecond)
	if got := m.Latency("x", "y"); got != 50*time.Millisecond {
		t.Errorf("x->y = %v, want 50ms", got)
	}
	if got := m.Latency("y", "x"); got != 50*time.Millisecond {
		t.Errorf("y->x = %v, want 50ms (symmetric)", got)
	}
	if got := m.Latency("x", "z"); got != 5*time.Millisecond {
		t.Errorf("x->z = %v, want default 5ms", got)
	}
	if got := m.Latency("x", "x"); got != 0 {
		t.Errorf("x->x = %v, want 0", got)
	}
}

func TestListenOnDownHostFails(t *testing.T) {
	sim, _, _, b := testNet(t)
	err := sim.Run("main", func() {
		b.Crash()
		if _, err := b.Listen("svc"); err != ErrHostDown {
			t.Errorf("Listen on crashed host = %v, want ErrHostDown", err)
		}
		b.RestoreCrashed()
		if _, err := b.Listen("svc"); err != nil {
			t.Errorf("Listen after restore: %v", err)
		}
		if _, err := b.Listen("svc"); err == nil {
			t.Error("duplicate Listen succeeded")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestNetworkCounters(t *testing.T) {
	sim, net, a, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	})
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		conn.Send([]byte("12345"))
		conn.Send([]byte("678"))
		sim.Sleep(10 * time.Millisecond)
		conn.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if net.Messages() != 2 {
		t.Errorf("Messages = %d, want 2", net.Messages())
	}
	if net.Bytes() != 8 {
		t.Errorf("Bytes = %d, want 8", net.Bytes())
	}
}
