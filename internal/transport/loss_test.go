package transport

import (
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// TestSendqFullDropAccounting is the regression test for the silent-loss
// bug: when the delivery queue saturates, Send used to ignore the TrySend
// result, so messages counted as sent simply vanished. Every sent message
// must now be accounted as either received or dropped.
func TestSendqFullDropAccounting(t *testing.T) {
	sim, net, a, b := testNet(t)
	ctrs := trace.NewCounters()
	net.SetCounters(ctrs)
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
	const sends = 6000 // well past the 4096-slot delivery queue
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		// All sends land at the same virtual instant: the delivery daemon
		// cannot drain between them, so the out queue saturates.
		for i := 0; i < sends; i++ {
			if err := conn.Send([]byte("m")); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
		}
		sim.Sleep(time.Second) // let deliveries finish
		conn.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if net.Messages() != sends {
		t.Fatalf("Messages = %d, want %d", net.Messages(), sends)
	}
	recvd := ctrs.Get(trace.Key("transport", "msgs", "recv", "b"))
	dropped := ctrs.Get(trace.Key("transport", "msgs", "drop", "a"))
	if dropped == 0 {
		t.Error("no drops accounted: the saturated send queue lost messages silently")
	}
	if recvd+dropped != sends {
		t.Errorf("recv %d + drop %d = %d, want %d: messages vanished without accounting",
			recvd, dropped, recvd+dropped, sends)
	}
}

// TestCloseFINReliableUnderOverload is the regression test for the lost-FIN
// bug: Close used to enqueue its FIN with a blind TrySend, so under
// overload the peer never learned of the close and hung in Recv until its
// timeout. The peer must observe ErrClosed even when the delivery queue was
// saturated at close time.
func TestCloseFINReliableUnderOverload(t *testing.T) {
	sim, _, a, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	result := vtime.NewChan[error](sim, "result", 1)
	sim.GoDaemon("server", func() {
		conn, ok := l.Accept()
		if !ok {
			return
		}
		for {
			_, err := conn.RecvTimeout(time.Hour)
			if err != nil {
				result.Send(err)
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
		// Saturate the delivery queue, then close while it is still full.
		for i := 0; i < 6000; i++ {
			conn.Send([]byte("m"))
		}
		conn.Close()
		got, _ := result.Recv()
		if got != ErrClosed {
			t.Errorf("peer Recv after overloaded close = %v, want ErrClosed (FIN was lost)", got)
		}
		if sim.Now() >= time.Hour {
			t.Errorf("peer only noticed the close via timeout at t=%v", sim.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestDialVsCrashRace is the regression test for the dial/crash window:
// DialCtx used to check the local host's state, sleep out the SYN, and
// register the conn pair without re-checking — a crash in that window
// registered live connections on a swept host. The dial must fail, and
// neither host may end up with a registered connection.
func TestDialVsCrashRace(t *testing.T) {
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
		// The dial's SYN sleep covers (0, 1ms); crash in the middle of it.
		sim.AfterFunc(500*time.Microsecond, func() { a.Crash() })
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != ErrHostDown {
			t.Errorf("Dial racing with local crash = %v, want ErrHostDown", err)
		}
		if conn != nil {
			t.Error("Dial racing with local crash returned a connection")
		}
		sim.Sleep(10 * time.Millisecond)
		aConns, bConns := len(a.conns), len(b.conns)
		if aConns != 0 || bConns != 0 {
			t.Errorf("connections registered on swept hosts: a=%d b=%d, want 0", aConns, bConns)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
