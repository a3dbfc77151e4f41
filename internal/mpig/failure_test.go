package mpig_test

import (
	"fmt"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mpig"
)

// TestPeerCrashSurfacesAsRecvError verifies that a machine crashing
// mid-computation turns a blocking receive into an error on the surviving
// side, not a hang — the monitoring-visibility property the paper demands
// of grid libraries.
func TestPeerCrashSurfacesAsRecvError(t *testing.T) {
	g := grid.New(grid.Options{})
	for _, name := range []string{"alive", "doomed"} {
		g.AddMachine(name, 8, lrm.Fork)
	}
	var recvErr error
	g.RegisterEverywhere("mpi", func(p *lrm.Proc) error {
		comm, err := mpig.Init(p)
		if err != nil {
			return nil
		}
		defer comm.Finalize()
		comm.OpTimeout = 2 * time.Minute
		if comm.Subjob() == 1 {
			// The doomed side: its host dies before it ever sends.
			p.Sleep(time.Hour)
			return nil
		}
		_, err = comm.Recv(1, 5) // rank 1 lives on the doomed machine
		recvErr = err
		return nil
	})
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred, Registry: g.Registry,
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	err = g.Sim.Run("agent", func() {
		job, err := ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			{Label: "alive", Contact: g.Contact("alive"), Count: 1, Executable: "mpi", Type: core.Required},
			{Label: "doomed", Contact: g.Contact("doomed"), Count: 1, Executable: "mpi", Type: core.Interactive},
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		g.Sim.Sleep(10 * time.Second)
		g.Net.Host("doomed").Crash()
		// Wait out the surviving rank's receive timeout.
		g.Sim.Sleep(3 * time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if recvErr == nil {
		t.Fatal("surviving rank's Recv returned nil after peer crash")
	}
}

// TestLargeWorldCollectives exercises the binomial trees on a 64-rank
// world spanning four machines.
func TestLargeWorldCollectives(t *testing.T) {
	errs := launch(t, []string{"m1", "m2", "m3", "m4"}, 16, func(c *mpig.Comm) error {
		if c.Size() != 64 {
			return fmt.Errorf("size = %d", c.Size())
		}
		sum, err := c.AllReduceInt(1, func(a, b int64) int64 { return a + b })
		if err != nil {
			return err
		}
		if sum != 64 {
			return fmt.Errorf("sum = %d, want 64", sum)
		}
		got, err := c.Bcast(17, []byte("payload"))
		if err != nil {
			return err
		}
		if string(got) != "payload" {
			return fmt.Errorf("bcast got %q", got)
		}
		return c.Barrier()
	})
	noErrors(t, errs)
}
