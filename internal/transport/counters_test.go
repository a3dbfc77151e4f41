package transport

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cogrid/internal/trace"
)

// The per-host counters are resolved once per host, by its first message
// each way and not before — a host that has only received has no send
// counter, not one at 0 — and in the registry attached at the time: a
// registry attached later gets the counts from then on.
func TestHostCountersAppearWithTheirFirstMessage(t *testing.T) {
	sim, net, a, b := testNet(t)
	first, second := trace.NewCounters(), trace.NewCounters()
	net.SetCounters(first)
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
	hostLines := func(ctrs *trace.Counters) map[string]int64 {
		lines := map[string]int64{}
		for _, cv := range ctrs.Snapshot() {
			if !strings.HasPrefix(cv.Name, "transport.conn.") {
				lines[cv.Name] = cv.Value
			}
		}
		return lines
	}
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		if got := hostLines(first); len(got) != 0 {
			t.Errorf("per-host counters exist before any message: %v", got)
		}
		conn.Send([]byte("one"))
		conn.Send([]byte("three"))
		sim.Sleep(10 * time.Millisecond)
		net.SetCounters(second)
		conn.Send([]byte("22"))
		sim.Sleep(10 * time.Millisecond)
		conn.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	want := map[string]int64{
		"transport.msgs.send@a": 2, "transport.bytes.send@a": 8,
		"transport.msgs.recv@b": 2, "transport.bytes.recv@b": 8,
	}
	if got := hostLines(first); !reflect.DeepEqual(got, want) {
		t.Errorf("first registry: %v, want %v", got, want)
	}
	want = map[string]int64{
		"transport.msgs.send@a": 1, "transport.bytes.send@a": 2,
		"transport.msgs.recv@b": 1, "transport.bytes.recv@b": 2,
	}
	if got := hostLines(second); !reflect.DeepEqual(got, want) {
		t.Errorf("second registry: %v, want %v", got, want)
	}
	// The connection joined the registry that was attached when it was dialed.
	if got := sumPrefix(first, "transport.conn.send@a:"); got != 3 {
		t.Errorf("the connection's send counter = %d, want 3", got)
	}
}
