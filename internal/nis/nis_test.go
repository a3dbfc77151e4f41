package nis

import (
	"errors"
	"testing"
	"time"

	"cogrid/internal/rpc"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

func setup(t *testing.T, serviceTime time.Duration) (*vtime.Sim, *transport.Host, *Server) {
	t.Helper()
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	nisHost := net.AddHost("nis-server")
	gram := net.AddHost("gram-host")
	srv, err := NewServer(nisHost, serviceTime)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.AddUser("grid-user", "users", "grid")
	return sim, gram, srv
}

func TestInitgroupsReturnsGroups(t *testing.T) {
	sim, gram, _ := setup(t, 0)
	err := sim.Run("main", func() {
		groups, err := Initgroups(gram, transport.Addr{Host: "nis-server", Service: ServiceName}, "grid-user", time.Minute)
		if err != nil {
			t.Errorf("Initgroups: %v", err)
			return
		}
		if len(groups) != 2 || groups[0] != "users" || groups[1] != "grid" {
			t.Errorf("groups = %v, want [users grid]", groups)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestInitgroupsCostMatchesFigure3(t *testing.T) {
	sim, gram, _ := setup(t, 0)
	err := sim.Run("main", func() {
		start := sim.Now()
		_, err := Initgroups(gram, transport.Addr{Host: "nis-server", Service: ServiceName}, "grid-user", time.Minute)
		if err != nil {
			t.Errorf("Initgroups: %v", err)
			return
		}
		// Dial RTT 2ms + call RTT 2ms + 696ms service = 700ms: the 0.7 s
		// Figure 3 charges to initgroups.
		if took := sim.Now() - start; took != 700*time.Millisecond {
			t.Errorf("initgroups took %v, want 700ms", took)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestInitgroupsUnknownUser(t *testing.T) {
	sim, gram, _ := setup(t, time.Millisecond)
	err := sim.Run("main", func() {
		_, err := Initgroups(gram, transport.Addr{Host: "nis-server", Service: ServiceName}, "nobody", time.Minute)
		var re rpc.RemoteError
		if !errors.As(err, &re) || re.Error() != ErrNoSuchUser.Error() {
			t.Errorf("Initgroups unknown user = %v, want no-such-user remote error", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestInitgroupsTimesOutAgainstHungServer(t *testing.T) {
	sim, gram, _ := setup(t, 10*time.Minute)
	err := sim.Run("main", func() {
		start := sim.Now()
		_, err := Initgroups(gram, transport.Addr{Host: "nis-server", Service: ServiceName}, "grid-user", 2*time.Second)
		if err != rpc.ErrTimeout {
			t.Errorf("Initgroups = %v, want rpc.ErrTimeout", err)
		}
		if took := sim.Now() - start; took < 2*time.Second || took > 3*time.Second {
			t.Errorf("timed out after %v, want about 2s", took)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestInitgroupsDialFailure(t *testing.T) {
	sim, gram, _ := setup(t, time.Millisecond)
	err := sim.Run("main", func() {
		_, err := Initgroups(gram, transport.Addr{Host: "no-such-host", Service: ServiceName}, "grid-user", time.Minute)
		if err == nil {
			t.Error("Initgroups against missing host succeeded")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestLookupsServeConcurrently(t *testing.T) {
	sim, gram, _ := setup(t, 500*time.Millisecond)
	wg := vtime.NewWaitGroup(sim)
	const n = 4
	wg.Add(n)
	var end time.Duration
	// One driver spawns the lookups: spawned from the test goroutine, the
	// first runs at once and alone, and can be the whole run before the next
	// process exists.
	err := sim.Run("main", func() {
		for i := 0; i < n; i++ {
			sim.Go("lookup", func() {
				defer wg.Done()
				if _, err := Initgroups(gram, transport.Addr{Host: "nis-server", Service: ServiceName}, "grid-user", time.Minute); err != nil {
					t.Errorf("Initgroups: %v", err)
				}
			})
		}
		wg.Wait()
		end = sim.Now()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	// Each lookup uses its own connection, so service times overlap.
	if end != 504*time.Millisecond {
		t.Fatalf("%d parallel lookups finished at %v, want 504ms", n, end)
	}
}
