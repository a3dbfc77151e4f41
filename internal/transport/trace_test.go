package transport

import (
	"strings"
	"testing"
	"time"

	"cogrid/internal/trace"
)

// sumPrefix totals every counter whose name starts with prefix — per-conn
// counter names embed the connection establish time, so tests match on the
// directional prefix rather than reconstructing the full key.
func sumPrefix(ctrs *trace.Counters, prefix string) int64 {
	var total int64
	for _, cv := range ctrs.Snapshot() {
		if strings.HasPrefix(cv.Name, prefix) {
			total += cv.Value
		}
	}
	return total
}

// Per-connection counters must track sends, receives, and both drop paths
// (unreachable at send time, in-flight when the partition lands mid-hop).
func TestPerConnCountersUnderDrops(t *testing.T) {
	sim, net, a, b := testNet(t)
	tr := trace.New(sim)
	ctrs := trace.NewCounters()
	net.SetTracer(tr)
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
	err = sim.Run("client", func() {
		conn, err := a.Dial(Addr{"b", "svc"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		// Two delivered messages.
		conn.Send([]byte("hello"))
		conn.Send([]byte("world!"))
		sim.Sleep(10 * time.Millisecond)
		// Unreachable drop: partition is visible at send time.
		net.Partition("a", "b")
		conn.Send([]byte("xx"))
		sim.Sleep(10 * time.Millisecond)
		// In-flight drop: send passes the reachability check, then the
		// partition lands before the 1 ms hop completes.
		net.Heal("a", "b")
		conn.Send([]byte("yy"))
		net.Partition("a", "b")
		sim.Sleep(10 * time.Millisecond)
		conn.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}

	// The unreachable message never reaches the wire, so send counts 3 of
	// the 4 attempts; only the first two arrive.
	clientPrefix := "transport.conn."
	checks := []struct {
		name string
		want int64
	}{
		{clientPrefix + "send@a:", 3},
		{clientPrefix + "sendbytes@a:", int64(len("hello") + len("world!") + len("yy"))},
		{clientPrefix + "drop@a:", 2},
		{clientPrefix + "recv@b:", 2},
		{clientPrefix + "recvbytes@b:", int64(len("hello") + len("world!"))},
	}
	for _, c := range checks {
		if got := sumPrefix(ctrs, c.name); got != c.want {
			t.Errorf("sum(%s*) = %d, want %d", c.name, got, c.want)
		}
	}
	if got := ctrs.Get(trace.Key("transport", "msgs", "drop", "a")); got != 2 {
		t.Errorf("transport.msgs.drop@a = %d, want 2", got)
	}

	// The trace must carry one hop span per wire send and one drop instant
	// per lost message, with distinct reasons for the two drop paths.
	hops := 0
	reasons := map[string]int{}
	for _, ev := range tr.Events() {
		if ev.Cat != "transport" {
			continue
		}
		switch ev.Name {
		case "hop":
			hops++
		case "drop":
			for _, arg := range ev.Args {
				if arg.Key == "reason" {
					reasons[arg.Val]++
				}
			}
		}
	}
	if hops != 3 {
		t.Errorf("hop spans = %d, want 3", hops)
	}
	if reasons["unreachable"] != 1 || reasons["in-flight"] != 1 {
		t.Errorf("drop reasons = %v, want one unreachable and one in-flight", reasons)
	}
}

// A per-connection counter line is per (direction, dial µs), not per
// connection: two dials between one host pair that establish in the same
// virtual microsecond render the same name, so the snapshot holds ONE line
// per verb with the sum — while the two connections stay distinguishable to
// tracing, because a dial's causal context is hashed into its flow.
func TestSameInstantDialsShareCounterLines(t *testing.T) {
	sim, net, a, b := testNet(t)
	ctrs := trace.NewCounters()
	net.SetCounters(ctrs)
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
			sim.GoDaemon("serve", func() {
				for {
					if _, err := conn.Recv(); err != nil {
						return
					}
				}
			})
		}
	})
	flows := make([]string, 2)
	dial := func(i int, payload string) func() {
		return func() {
			conn, err := a.DialCtx(Addr{"b", "svc"}, trace.NewRequest("r"+string(rune('0'+i))))
			if err != nil {
				t.Errorf("Dial %d: %v", i, err)
				return
			}
			flows[i] = conn.Flow()
			conn.Send([]byte(payload))
			sim.Sleep(10 * time.Millisecond)
			conn.Close()
		}
	}
	err = sim.Run("client", func() {
		sim.Go("dial0", dial(0, "four"))
		sim.Go("dial1", dial(1, "sixsix"))
		sim.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if flows[0] == flows[1] || flows[0] == "" {
		t.Errorf("the two connections' flows are %q and %q, want distinct", flows[0], flows[1])
	}

	// Both pairs established 1 ms (one SYN) after t=0.
	const out, in = "a:client->b:svc@1000", "b:svc->a:client@1000"
	want := map[string]int64{
		"transport.conn.send@" + out:      2,
		"transport.conn.sendbytes@" + out: 10,
		"transport.conn.recv@" + out:      0,
		"transport.conn.recvbytes@" + out: 0,
		"transport.conn.drop@" + out:      0,
		"transport.conn.send@" + in:       0,
		"transport.conn.sendbytes@" + in:  0,
		"transport.conn.recv@" + in:       2,
		"transport.conn.recvbytes@" + in:  10,
		"transport.conn.drop@" + in:       0,
	}
	lines := 0
	for _, cv := range ctrs.Snapshot() {
		if !strings.HasPrefix(cv.Name, "transport.conn.") {
			continue
		}
		lines++
		if w, ok := want[cv.Name]; !ok || cv.Value != w {
			t.Errorf("snapshot line %s = %d, want %d (expected: %t)", cv.Name, cv.Value, w, ok)
		}
		if got := ctrs.Get(cv.Name); got != cv.Value {
			t.Errorf("Get(%s) = %d, snapshot says %d", cv.Name, got, cv.Value)
		}
	}
	if lines != len(want) {
		t.Errorf("%d per-connection lines for two same-instant connections, want %d:\n%s", lines, len(want), ctrs)
	}
}
