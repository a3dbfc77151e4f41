package transport

import (
	"testing"
	"time"

	"cogrid/internal/vtime"
)

func TestDialRetriesThroughTransientPartition(t *testing.T) {
	sim, net, a, b := testNet(t)
	if _, err := b.Listen("svc"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	err := sim.Run("client", func() {
		net.Partition("a", "b")
		sim.AfterFunc(5*time.Second, func() { net.Heal("a", "b") })
		start := sim.Now()
		conn, err := a.Dial(Addr{Host: "b", Service: "svc"})
		if err != nil {
			t.Errorf("Dial through healed partition: %v", err)
			return
		}
		defer conn.Close()
		// SYN retries land within a second of the heal.
		if took := sim.Now() - start; took < 5*time.Second || took > 7*time.Second {
			t.Errorf("dial took %v, want just after the 5s heal", took)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestDialRetryStillTimesOutWhenNeverHealed(t *testing.T) {
	sim, net, a, b := testNet(t)
	if _, err := b.Listen("svc"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	err := sim.Run("client", func() {
		net.Partition("a", "b")
		start := sim.Now()
		if _, err := a.Dial(Addr{Host: "b", Service: "svc"}); err != ErrDialTimeout {
			t.Errorf("Dial = %v, want timeout", err)
		}
		if took := sim.Now() - start; took != DialTimeout {
			t.Errorf("gave up after %v, want %v", took, DialTimeout)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	sim, _, _, b := testNet(t)
	l, err := b.Listen("svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	accepted := vtime.NewChan[bool](sim, "accepted", 1)
	sim.GoDaemon("server", func() {
		_, ok := l.Accept()
		accepted.Send(ok)
	})
	err = sim.Run("main", func() {
		sim.Sleep(time.Second)
		l.Close()
		ok, _ := accepted.Recv()
		if ok {
			t.Error("Accept reported a connection after Close")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestListenerCloseAllowsRelisten(t *testing.T) {
	sim, _, _, b := testNet(t)
	err := sim.Run("main", func() {
		l, err := b.Listen("svc")
		if err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		l.Close()
		if _, err := b.Listen("svc"); err != nil {
			t.Errorf("re-Listen after Close: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestDialFromCrashedHostFails(t *testing.T) {
	sim, _, a, b := testNet(t)
	if _, err := b.Listen("svc"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	err := sim.Run("main", func() {
		a.Crash()
		if _, err := a.Dial(Addr{Host: "b", Service: "svc"}); err != ErrHostDown {
			t.Errorf("Dial from crashed host = %v, want ErrHostDown", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestManyConnectionsBetweenSameHosts(t *testing.T) {
	sim, _, a, b := testNet(t)
	l, err := b.Listen("svc")
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
						return
					}
					if conn.Send(msg) != nil {
						return
					}
				}
			})
		}
	})
	const n = 32
	wg := vtime.NewWaitGroup(sim)
	wg.Add(n)
	// One driver spawns the clients: spawned from the test goroutine, the
	// first runs at once and alone, and can be the whole run before the next
	// process exists.
	err = sim.Run("main", func() {
		for i := 0; i < n; i++ {
			sim.Go("client", func() {
				defer wg.Done()
				conn, err := a.Dial(Addr{Host: "b", Service: "svc"})
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				defer conn.Close()
				if err := conn.Send([]byte{byte(i)}); err != nil {
					t.Errorf("client %d send: %v", i, err)
					return
				}
				msg, err := conn.Recv()
				if err != nil || msg[0] != byte(i) {
					t.Errorf("client %d echo = %v, %v", i, msg, err)
				}
			})
		}
		wg.Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
