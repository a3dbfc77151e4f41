package core_test

import (
	"strings"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/workload"
)

// These integration tests drive DUROC through injected faults, covering the
// paper's full failure-visibility matrix: error reports (crash, app
// failure), and lack of progress (hang, partition).

// schedule injects faults into g through workload.Testbed.Schedule, as
// every harness does.
func schedule(t *testing.T, g *grid.Grid, faults ...workload.Fault) {
	t.Helper()
	if _, err := (&workload.Testbed{Grid: g}).Schedule(faults); err != nil {
		t.Fatal(err)
	}
}

func TestRequiredFailurePostCommitKillsComputation(t *testing.T) {
	// "Failure or timeout of a required resource causes the entire
	// computation to be terminated, regardless of whether a commit has
	// been issued or not."
	rig := newRig(t, "m1", "m2")
	rig.g.RegisterEverywhere("longapp", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 0); err != nil {
			return nil
		}
		return p.Work(time.Hour, time.Second)
	})
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			{Contact: rig.g.Contact("m1"), Count: 2, Executable: "longapp", Type: core.Required, Label: "m1"},
			{Contact: rig.g.Contact("m2"), Count: 2, Executable: "longapp", Type: core.Required, Label: "m2"},
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		// Crash m2 mid-computation: a required resource failed after
		// commit, so the whole computation must terminate.
		rig.g.Sim.Sleep(30 * time.Second)
		rig.g.Net.Host("m2").Crash()
		job.Done().Wait()
		if !strings.Contains(job.Err(), "required subjob") {
			t.Errorf("job error = %q, want required-subjob termination", job.Err())
		}
		if rig.g.Sim.Now() > 10*time.Minute {
			t.Errorf("termination took until %v", rig.g.Sim.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestHungMachineSurfacesAsTimeoutNotError(t *testing.T) {
	// A hang produces no error report — only lack of progress, caught by
	// the subjob startup timeout.
	rig := newRig(t, "m1", "hangs")
	schedule(t, rig.g, workload.Fault{Kind: "hang", Target: "hangs", At: 2 * time.Second})
	err := rig.g.Sim.Run("agent", func() {
		specs := []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
			rig.spec("hangs", 2, core.Interactive),
		}
		specs[1].StartupTimeout = time.Minute
		job, err := rig.ctrl.Submit(core.Request{Subjobs: specs})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		var failureReason string
		rig.g.Sim.Go("watcher", func() {
			for {
				ev, ok := job.Events().Recv()
				if !ok {
					return
				}
				if ev.Kind == core.EvSubjobFailed && ev.Label == "hangs" {
					failureReason = ev.Reason
					job.Delete("hangs")
				}
			}
		})
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		job.Done().Wait()
		if !strings.Contains(failureReason, "timeout") && !strings.Contains(failureReason, "timed out") {
			t.Errorf("hang surfaced as %q, want a timeout (lack of progress)", failureReason)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestPartitionDuringBarrierRecovers(t *testing.T) {
	// A transient partition between the controller and a machine during
	// startup delays check-in; once healed, the co-allocation completes.
	rig := newRig(t, "m1", "m2")
	schedule(t, rig.g, workload.Fault{Kind: "partition", Target: "m2", Target2: "workstation",
		At: 100 * time.Millisecond, Dur: 20*time.Second - 100*time.Millisecond})
	err := rig.g.Sim.Run("agent", func() {
		specs := []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
			rig.spec("m2", 2, core.Required),
		}
		specs[1].StartupTimeout = 5 * time.Minute
		job, err := rig.ctrl.Submit(core.Request{Subjobs: specs})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		cfg, err := job.Commit(10 * time.Minute)
		if err != nil {
			t.Errorf("Commit after heal: %v", err)
			return
		}
		if cfg.WorldSize != 4 {
			t.Errorf("world size = %d", cfg.WorldSize)
		}
		// Commit must have waited for the heal.
		if rig.g.Sim.Now() < 20*time.Second {
			t.Errorf("committed at %v, before the partition healed", rig.g.Sim.Now())
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestAuthFailureIsErrorReport(t *testing.T) {
	// Revoked credentials produce an immediate error report, not a hang.
	rig := newRig(t, "m1")
	rig.g.Registry.Revoke(grid.DefaultUser)
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		_, err = job.Commit(0)
		if err == nil {
			t.Error("Commit succeeded with revoked credentials")
		}
		if rig.g.Sim.Now() > time.Minute {
			t.Errorf("auth failure took %v to surface", rig.g.Sim.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSeededFaultPlanEndToEnd(t *testing.T) {
	// A randomized fault plan over many machines: the substitution agent
	// must either commit a full-size world or fail cleanly — never hang.
	for seed := int64(1); seed <= 5; seed++ {
		rig := newRig(t, "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7")
		// At most one fault on each of w0..w3, at a uniform instant of the
		// first 10 s, drawn from the kernel's seeded source: a crash (30 %),
		// a hang (20 %) or a 20x slowdown (20 %), none of which heals.
		var faults []workload.Fault
		for _, name := range []string{"w0", "w1", "w2", "w3"} {
			f := workload.Fault{Target: name, At: time.Duration(rig.g.Sim.RandFloat64() * float64(10*time.Second))}
			switch roll := rig.g.Sim.RandFloat64(); {
			case roll < 0.3:
				f.Kind = "crash"
			case roll < 0.3+0.2:
				f.Kind = "hang"
			case roll < 0.3+0.2+0.2:
				f.Kind, f.Factor = "slow", 20
			default:
				continue
			}
			faults = append(faults, f)
		}
		schedule(t, rig.g, faults...)
		err := rig.g.Sim.Run("agent", func() {
			var req core.Request
			for _, name := range []string{"w0", "w1", "w2", "w3"} {
				s := rig.spec(name, 4, core.Interactive)
				s.StartupTimeout = 30 * time.Second
				req.Subjobs = append(req.Subjobs, s)
			}
			job, err := rig.ctrl.Submit(req)
			if err != nil {
				t.Errorf("seed %d: Submit: %v", seed, err)
				return
			}
			pool := []string{"w4", "w5", "w6", "w7"}
			poolNext := 0
			rig.g.Sim.Go("fixer", func() {
				for {
					ev, ok := job.Events().Recv()
					if !ok {
						return
					}
					if ev.Kind == core.EvSubjobFailed && poolNext < len(pool) {
						s := rig.spec(pool[poolNext], 4, core.Interactive)
						s.Label = s.Label + "-sub"
						poolNext++
						job.Substitute(ev.Label, s)
					}
				}
			})
			cfg, err := job.Commit(5 * time.Minute)
			if err != nil {
				job.Abort("test cleanup")
				return // a clean failure is acceptable under heavy faults
			}
			if cfg.WorldSize != 16 {
				t.Errorf("seed %d: committed %d processes, want 16", seed, cfg.WorldSize)
			}
			job.Kill()
		})
		if err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
	}
}
