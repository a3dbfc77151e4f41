package core_test

import (
	"errors"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
)

func TestCollectiveSuspendResume(t *testing.T) {
	g := grid.New(grid.Options{})
	for _, name := range []string{"m1", "m2"} {
		g.AddMachine(name, 16, lrm.Fork)
	}
	var finished []time.Duration
	g.RegisterEverywhere("tensec", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 0); err != nil {
			return nil
		}
		if err := p.Work(10*time.Second, time.Second); err != nil {
			return err
		}
		finished = append(finished, p.Sim().Now())
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
			{Label: "m1", Contact: g.Contact("m1"), Count: 2, Executable: "tensec", Type: core.Required},
			{Label: "m2", Contact: g.Contact("m2"), Count: 2, Executable: "tensec", Type: core.Required},
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if err := job.Suspend(); !errors.Is(err, core.ErrNotCommitted) {
			t.Errorf("Suspend before commit = %v, want ErrNotCommitted", err)
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		committedAt := g.Sim.Now()
		g.Sim.Sleep(2 * time.Second)
		if err := job.Suspend(); err != nil {
			t.Errorf("collective Suspend: %v", err)
			return
		}
		g.Sim.Sleep(30 * time.Second)
		if err := job.Resume(); err != nil {
			t.Errorf("collective Resume: %v", err)
			return
		}
		job.Done().Wait()
		// ~10s of work stretched by a 30s suspension on both machines.
		elapsed := g.Sim.Now() - committedAt
		if elapsed < 38*time.Second || elapsed > 44*time.Second {
			t.Errorf("computation took %v after commit, want ~40s", elapsed)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(finished) != 4 {
		t.Fatalf("%d processes finished, want 4", len(finished))
	}
}

func TestParallelSubmissionAblation(t *testing.T) {
	// The sequential pipeline costs T1 + k(M-1); parallel submission is
	// nearly flat in the subjob count. This validates the ablation switch
	// used by the experiments.
	run := func(parallel bool, subjobs int) time.Duration {
		g := grid.New(grid.Options{})
		g.AddMachine("origin", 64, lrm.Fork)
		g.RegisterEverywhere("app", func(p *lrm.Proc) error {
			rt, err := core.Attach(p)
			if err != nil {
				return err
			}
			defer rt.Close()
			if _, err := rt.Barrier(true, "", 0); err != nil {
				return nil
			}
			return nil
		})
		ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
			Credential:         g.UserCred,
			Registry:           g.Registry,
			ParallelSubmission: parallel,
		})
		if err != nil {
			t.Fatalf("NewController: %v", err)
		}
		var req core.Request
		for i := 0; i < subjobs; i++ {
			req.Subjobs = append(req.Subjobs, core.SubjobSpec{
				Contact: g.Contact("origin"), Count: 64 / subjobs,
				Executable: "app", Type: core.Required,
			})
		}
		var elapsed time.Duration
		err = g.Sim.Run("agent", func() {
			job, err := ctrl.Submit(req)
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			if _, err := job.Commit(0); err != nil {
				t.Errorf("Commit: %v", err)
				return
			}
			elapsed = g.Sim.Now()
			job.Done().Wait()
		})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		return elapsed
	}
	seq1, seq8 := run(false, 1), run(false, 8)
	par1, par8 := run(true, 1), run(true, 8)
	if seq8 <= seq1+6*time.Second {
		t.Errorf("sequential 8 subjobs %v not ~7 pipeline steps beyond 1 subjob %v", seq8, seq1)
	}
	if par8 > par1+time.Second {
		t.Errorf("parallel submission not flat: 1 subjob %v, 8 subjobs %v", par1, par8)
	}
	if par8 >= seq8/2 {
		t.Errorf("parallel (%v) should be far below sequential (%v) at 8 subjobs", par8, seq8)
	}
}

func TestControllerCloseAbortsLiveJobs(t *testing.T) {
	rig := newRig(t, "m1")
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		rig.g.Sim.Sleep(500 * time.Millisecond) // mid-submission
		rig.ctrl.Close()
		job.Done().Wait()
		if job.Err() == "" {
			t.Error("job survived controller close")
		}
		if _, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
		}}); err != nil {
			// Submission still constructs a job; its barrier can never be
			// reached, but Submit itself is not required to fail. Either
			// behaviour is acceptable; just don't crash.
			_ = err
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCommitTwiceReturnsSameConfig(t *testing.T) {
	rig := newRig(t, "m1")
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		cfg1, err := job.Commit(0)
		if err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		cfg2, err := job.Commit(0)
		if err != nil {
			t.Errorf("second Commit: %v", err)
			return
		}
		if cfg1.WorldSize != cfg2.WorldSize || cfg1.NSubjobs != cfg2.NSubjobs {
			t.Errorf("configs differ: %+v vs %+v", cfg1, cfg2)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSubstituteAutoLabel(t *testing.T) {
	rig := newRig(t, "m1", "bad", "spare")
	rig.g.Machine("bad").SetDown(true)
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
			rig.spec("bad", 2, core.Interactive),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		for {
			ev, ok := job.Events().Recv()
			if !ok {
				return
			}
			if ev.Kind == core.EvSubjobFailed {
				// Empty label: the controller must generate one.
				spec := rig.spec("spare", 2, core.Interactive)
				spec.Label = ""
				if err := job.Substitute("bad", spec); err != nil {
					t.Errorf("Substitute: %v", err)
				}
				break
			}
		}
		cfg, err := job.Commit(0)
		if err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		if cfg.WorldSize != 4 {
			t.Errorf("world size = %d", cfg.WorldSize)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
