package reservation_test

import (
	"errors"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/reservation"
)

func newRig(t *testing.T) (*grid.Grid, *core.Controller) {
	t.Helper()
	g := grid.New(grid.Options{})
	for _, name := range []string{"sp1", "sp2", "sp3"} {
		g.AddMachine(name, 64, lrm.Batch)
	}
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return g, ctrl
}

func parts(g *grid.Grid, count int, names ...string) []reservation.Participant {
	var out []reservation.Participant
	for _, n := range names {
		out = append(out, reservation.Participant{Contact: g.Contact(n), Count: count})
	}
	return out
}

func TestCoReserveOnIdleMachines(t *testing.T) {
	g, _ := newRig(t)
	err := g.Sim.Run("agent", func() {
		cr, err := reservation.CoReserve(g.Workstation, g.ClientConfig(),
			parts(g, 32, "sp1", "sp2", "sp3"),
			reservation.Options{Duration: time.Hour, Earliest: 10 * time.Minute})
		if err != nil {
			t.Errorf("CoReserve: %v", err)
			return
		}
		defer cr.Cancel()
		if cr.Start != 10*time.Minute {
			t.Errorf("start = %v, want 10m (idle machines)", cr.Start)
		}
		if len(cr.Reservations) != 3 {
			t.Errorf("%d reservations", len(cr.Reservations))
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCoReserveFindsCommonSlotAroundConflicts(t *testing.T) {
	g, _ := newRig(t)
	// sp2's whole machine is already reserved for [0, 2h): the common
	// slot must move past it.
	if _, err := g.Machine("sp2").Reserve(64, 0, 2*time.Hour); err != nil {
		t.Fatalf("pre-reserve: %v", err)
	}
	err := g.Sim.Run("agent", func() {
		cr, err := reservation.CoReserve(g.Workstation, g.ClientConfig(),
			parts(g, 48, "sp1", "sp2", "sp3"),
			reservation.Options{Duration: time.Hour})
		if err != nil {
			t.Errorf("CoReserve: %v", err)
			return
		}
		defer cr.Cancel()
		if cr.Start != 2*time.Hour {
			t.Errorf("start = %v, want 2h (after sp2's conflict)", cr.Start)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCoReserveEmptyParticipants(t *testing.T) {
	g, _ := newRig(t)
	err := g.Sim.Run("agent", func() {
		_, err := reservation.CoReserve(g.Workstation, g.ClientConfig(), nil, reservation.Options{Duration: time.Hour})
		if !errors.Is(err, reservation.ErrEmpty) {
			t.Errorf("CoReserve(nil) = %v", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCoReservationClaimedThroughDUROC(t *testing.T) {
	g, ctrl := newRig(t)
	var startTimes []time.Duration
	g.RegisterEverywhere("synced", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 0); err != nil {
			return nil
		}
		startTimes = append(startTimes, p.Sim().Now())
		return p.Work(time.Minute, time.Second)
	})
	err := g.Sim.Run("agent", func() {
		cr, err := reservation.CoReserve(g.Workstation, g.ClientConfig(),
			parts(g, 16, "sp1", "sp2"),
			reservation.Options{Duration: time.Hour, Earliest: 30 * time.Minute})
		if err != nil {
			t.Errorf("CoReserve: %v", err)
			return
		}
		req := cr.Request("synced", g.Sim.Now(), 10*time.Minute)
		job, err := ctrl.Submit(req)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		cfg, err := job.Commit(0)
		if err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		if cfg.WorldSize != 32 {
			t.Errorf("world size = %d", cfg.WorldSize)
		}
		job.Done().Wait()
		if job.Err() != "" {
			t.Errorf("job error: %s", job.Err())
		}
		cr.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(startTimes) != 32 {
		t.Fatalf("%d processes released, want 32", len(startTimes))
	}
	for _, at := range startTimes {
		// Processes launch at the window start (30m) and release after
		// startup + check-in, still well inside the window.
		if at < 30*time.Minute || at > 40*time.Minute {
			t.Errorf("process released at %v, outside the reserved window start", at)
		}
	}
}

func TestCoReserveDialFailureCleansUp(t *testing.T) {
	g, _ := newRig(t)
	g.Net.Host("sp2").Crash()
	err := g.Sim.Run("agent", func() {
		_, err := reservation.CoReserve(g.Workstation, g.ClientConfig(),
			parts(g, 16, "sp1", "sp2"),
			reservation.Options{Duration: time.Hour})
		if err == nil {
			t.Error("CoReserve with a crashed machine succeeded")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCoReserveOversizedRequestFails(t *testing.T) {
	g, _ := newRig(t)
	err := g.Sim.Run("agent", func() {
		_, err := reservation.CoReserve(g.Workstation, g.ClientConfig(),
			parts(g, 128, "sp1"), // machine has 64
			reservation.Options{Duration: time.Hour})
		if err == nil {
			t.Error("oversized co-reservation succeeded")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestRequestDefaultsSlack(t *testing.T) {
	g, _ := newRig(t)
	err := g.Sim.Run("agent", func() {
		cr, err := reservation.CoReserve(g.Workstation, g.ClientConfig(),
			parts(g, 8, "sp1"),
			reservation.Options{Duration: time.Hour, Earliest: time.Hour})
		if err != nil {
			t.Errorf("CoReserve: %v", err)
			return
		}
		defer cr.Cancel()
		req := cr.Request("work", g.Sim.Now(), 0)
		if len(req.Subjobs) != 1 {
			t.Fatalf("subjobs = %d", len(req.Subjobs))
		}
		sj := req.Subjobs[0]
		if sj.ReservationID == "" || sj.Type != core.Required {
			t.Errorf("subjob = %+v", sj)
		}
		// Default slack (5m) on top of the remaining wait until the
		// window (negotiation already consumed a little simulated time).
		want := time.Hour + 5*time.Minute
		if sj.StartupTimeout > want || sj.StartupTimeout < want-time.Minute {
			t.Errorf("StartupTimeout = %v, want just under 1h5m", sj.StartupTimeout)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCancelReleasesReservations(t *testing.T) {
	g, _ := newRig(t)
	err := g.Sim.Run("agent", func() {
		cr, err := reservation.CoReserve(g.Workstation, g.ClientConfig(),
			parts(g, 64, "sp1"),
			reservation.Options{Duration: time.Hour, Earliest: time.Minute})
		if err != nil {
			t.Errorf("CoReserve: %v", err)
			return
		}
		cr.Cancel()
		// The slot must be free again.
		if len(g.Machine("sp1").Reservations()) != 0 {
			t.Errorf("reservations remain after Cancel: %v", g.Machine("sp1").Reservations())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
