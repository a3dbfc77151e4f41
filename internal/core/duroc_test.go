package core_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
)

// testRig is a grid plus a controller and shared bookkeeping for the
// standard barrier-worker executable.
type testRig struct {
	g    *grid.Grid
	ctrl *core.Controller

	mu        sync.Mutex
	proceeded []core.Config // config seen by each proceeding process
	abortMsgs []string
}

// newRig builds a grid with the given machines (all fork mode, 64 procs)
// and registers the standard "app" executable: attach, optional startup
// delay via env, barrier, brief compute, exit.
func newRig(t *testing.T, machines ...string) *testRig {
	t.Helper()
	g := grid.New(grid.Options{})
	rig := &testRig{g: g}
	for _, name := range machines {
		g.AddMachine(name, 64, lrm.Fork)
	}
	g.RegisterEverywhere("app", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		cfg, err := rt.Barrier(true, "", 0)
		if err != nil {
			if errors.Is(err, core.ErrBarrierAbort) {
				rig.mu.Lock()
				rig.abortMsgs = append(rig.abortMsgs, err.Error())
				rig.mu.Unlock()
				return nil // aborted before irreversible initialization
			}
			return err
		}
		rig.mu.Lock()
		rig.proceeded = append(rig.proceeded, *cfg)
		rig.mu.Unlock()
		return p.Work(time.Second, time.Second)
	})
	g.RegisterEverywhere("badstart", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		_, err = rt.Barrier(false, "local library check failed", 0)
		return nil // reported failure; exit quietly
	})
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	rig.ctrl = ctrl
	return rig
}

func (r *testRig) spec(machine string, count int, typ core.SubjobType) core.SubjobSpec {
	return core.SubjobSpec{
		Contact:    r.g.Contact(machine),
		Count:      count,
		Executable: "app",
		Type:       typ,
		Label:      machine,
	}
}

func (r *testRig) proceededCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.proceeded)
}

func TestAtomicStyleCoallocationSucceeds(t *testing.T) {
	rig := newRig(t, "m1", "m2", "m3")
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 4, core.Required),
			rig.spec("m2", 8, core.Required),
			rig.spec("m3", 2, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		cfg, err := job.Commit(0)
		if err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		if cfg.NSubjobs != 3 || cfg.WorldSize != 14 {
			t.Errorf("config = %+v", cfg)
		}
		if len(cfg.AddressBook()) != 14 {
			t.Errorf("address book has %d entries, want 14", len(cfg.AddressBook()))
		}
		job.Done().Wait()
		if job.Err() != "" {
			t.Errorf("job error: %s", job.Err())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if got := rig.proceededCount(); got != 14 {
		t.Fatalf("%d processes proceeded, want 14", got)
	}
}

func TestConfigRanksAndAddressBook(t *testing.T) {
	rig := newRig(t, "m1", "m2")
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 3, core.Required),
			rig.spec("m2", 2, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	rig.mu.Lock()
	defer rig.mu.Unlock()
	if len(rig.proceeded) != 5 {
		t.Fatalf("%d proceeded, want 5", len(rig.proceeded))
	}
	seenRanks := make(map[int]core.Config)
	for _, cfg := range rig.proceeded {
		if cfg.WorldSize != 5 || cfg.NSubjobs != 2 {
			t.Fatalf("bad config %+v", cfg)
		}
		if cfg.SubjobSizes[0] != 3 || cfg.SubjobSizes[1] != 2 {
			t.Fatalf("sizes = %v", cfg.SubjobSizes)
		}
		if _, dup := seenRanks[cfg.MyRank]; dup {
			t.Fatalf("duplicate global rank %d", cfg.MyRank)
		}
		seenRanks[cfg.MyRank] = cfg
	}
	for rank := 0; rank < 5; rank++ {
		cfg, ok := seenRanks[rank]
		if !ok {
			t.Fatalf("missing rank %d", rank)
		}
		wantSubjob := 0
		if rank >= 3 {
			wantSubjob = 1
		}
		if cfg.MySubjob != wantSubjob {
			t.Errorf("rank %d subjob = %d, want %d", rank, cfg.MySubjob, wantSubjob)
		}
		// Address book entries name the host the process runs on.
		wantHost := "m1"
		if rank >= 3 {
			wantHost = "m2"
		}
		if !strings.HasPrefix(cfg.AddressBook()[rank], wantHost+":") {
			t.Errorf("address book[%d] = %q, want host %s", rank, cfg.AddressBook()[rank], wantHost)
		}
	}
}

func TestRankOf(t *testing.T) {
	cfg := core.Config{NSubjobs: 3, SubjobSizes: []int{4, 2, 3}}
	cases := []struct{ sj, lr, want int }{
		{0, 0, 0}, {0, 3, 3}, {1, 0, 4}, {1, 1, 5}, {2, 2, 8},
		{3, 0, -1}, {-1, 0, -1}, {1, 2, -1}, {0, -1, -1},
	}
	for _, c := range cases {
		if got := cfg.RankOf(c.sj, c.lr); got != c.want {
			t.Errorf("RankOf(%d,%d) = %d, want %d", c.sj, c.lr, got, c.want)
		}
	}
}

func TestRequiredSubjobFailureAbortsEverything(t *testing.T) {
	rig := newRig(t, "m1", "m2")
	// m2 is down: its GRAM submission will fail.
	rig.g.Machine("m2").SetDown(true)
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 4, core.Required),
			rig.spec("m2", 4, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		_, err = job.Commit(0)
		if !errors.Is(err, core.ErrAborted) {
			t.Errorf("Commit = %v, want ErrAborted", err)
		}
		if !strings.Contains(job.Err(), "m2") {
			t.Errorf("job error %q does not name the failed subjob", job.Err())
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if rig.proceededCount() != 0 {
		t.Fatalf("%d processes proceeded after abort", rig.proceededCount())
	}
}

func TestInteractiveFailureCallbackAndSubstitute(t *testing.T) {
	// The paper's Section 2 scenario: a resource fails, the agent
	// substitutes a dynamically located alternative and proceeds.
	rig := newRig(t, "m1", "broken", "spare")
	rig.g.Machine("broken").SetDown(true)
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 4, core.Required),
			rig.spec("broken", 4, core.Interactive),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		// Drive from the event stream, exactly like a co-allocation agent.
		substituted := false
		committed := make(chan core.Config, 1)
		rig.g.Sim.Go("committer", func() {
			cfg, err := job.Commit(0)
			if err != nil {
				t.Errorf("Commit: %v", err)
			}
			committed <- cfg
		})
		for {
			ev, ok := job.Events().Recv()
			if !ok {
				t.Error("event stream closed before commit")
				return
			}
			if ev.Kind == core.EvSubjobFailed && ev.Label == "broken" {
				if ev.Type != core.Interactive {
					t.Errorf("failed subjob type = %v", ev.Type)
				}
				if err := job.Substitute("broken", rig.spec("spare", 4, core.Interactive)); err != nil {
					t.Errorf("Substitute: %v", err)
				}
				substituted = true
			}
			if ev.Kind == core.EvCommitted {
				break
			}
		}
		if !substituted {
			t.Error("no interactive failure callback was delivered")
		}
		cfg := <-committed
		if cfg.WorldSize != 8 {
			t.Errorf("world size = %d, want 8", cfg.WorldSize)
		}
		for i, l := range cfg.SubjobLabels() {
			if l == "broken" {
				t.Errorf("committed labels[%d] = broken", i)
			}
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if rig.proceededCount() != 8 {
		t.Fatalf("%d proceeded, want 8", rig.proceededCount())
	}
}

func TestInteractiveFailureDeleteAndProceedWithFewer(t *testing.T) {
	// Second half of the Section 2 scenario: a subjob is slow; the agent
	// drops it and proceeds with reduced fidelity.
	rig := newRig(t, "m1", "m2", "slow")
	rig.g.Machine("slow").SetSlowFactor(1000) // startup far beyond timeout
	err := rig.g.Sim.Run("agent", func() {
		specs := []core.SubjobSpec{
			rig.spec("m1", 4, core.Required),
			rig.spec("m2", 4, core.Interactive),
			rig.spec("slow", 4, core.Interactive),
		}
		specs[2].StartupTimeout = 30 * time.Second
		job, err := rig.ctrl.Submit(core.Request{Subjobs: specs})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		sawTimeout := false
		rig.g.Sim.Go("agent-loop", func() {
			for {
				ev, ok := job.Events().Recv()
				if !ok {
					return
				}
				if ev.Kind == core.EvSubjobFailed && ev.Label == "slow" {
					sawTimeout = true
					if !strings.Contains(ev.Reason, "timeout") {
						t.Errorf("reason = %q, want startup timeout", ev.Reason)
					}
					if err := job.Delete("slow"); err != nil {
						t.Errorf("Delete: %v", err)
					}
				}
			}
		})
		cfg, err := job.Commit(0)
		if err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		if cfg.WorldSize != 8 || cfg.NSubjobs != 2 {
			t.Errorf("config = %+v, want 2 subjobs / 8 procs", cfg)
		}
		job.Done().Wait()
		if !sawTimeout {
			t.Error("never saw the slow subjob's timeout callback")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestOptionalSubjobsDoNotBlockCommit(t *testing.T) {
	rig := newRig(t, "m1", "off")
	rig.g.Machine("off").SetDown(true)
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 4, core.Required),
			rig.spec("off", 4, core.Optional),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		cfg, err := job.Commit(0)
		if err != nil {
			t.Errorf("Commit despite optional failure: %v", err)
			return
		}
		if cfg.WorldSize != 4 {
			t.Errorf("world size = %d, want 4 (optional subjob excluded)", cfg.WorldSize)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestAppReportedStartupFailure(t *testing.T) {
	// A process performing local checks reports unsuccessful startup via
	// Barrier(false): application-defined failure (Section 2).
	rig := newRig(t, "m1", "m2")
	err := rig.g.Sim.Run("agent", func() {
		specs := []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
			{Contact: rig.g.Contact("m2"), Count: 2, Executable: "badstart", Type: core.Required, Label: "m2"},
		}
		job, err := rig.ctrl.Submit(core.Request{Subjobs: specs})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		_, err = job.Commit(0)
		if !errors.Is(err, core.ErrAborted) {
			t.Errorf("Commit = %v, want ErrAborted", err)
		}
		if !strings.Contains(job.Err(), "local library check failed") {
			t.Errorf("job error %q lacks application message", job.Err())
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestAbortReleasesBarrierWaiters(t *testing.T) {
	rig := newRig(t, "m1")
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 4, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		// Wait for full check-in, then abort instead of committing.
		for {
			ev, ok := job.Events().Recv()
			if !ok {
				return
			}
			if ev.Kind == core.EvCheckedIn {
				break
			}
		}
		job.Abort("operator changed mind")
		job.Done().Wait()
		if _, err := job.Commit(0); !errors.Is(err, core.ErrAborted) {
			t.Errorf("Commit after abort = %v", err)
		}
		// Let the abort replies propagate to the waiting processes before
		// the simulation ends.
		rig.g.Sim.Sleep(5 * time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	rig.mu.Lock()
	defer rig.mu.Unlock()
	if len(rig.abortMsgs) != 4 {
		t.Fatalf("%d processes saw barrier abort, want 4", len(rig.abortMsgs))
	}
	if len(rig.proceeded) != 0 {
		t.Fatalf("processes proceeded after abort")
	}
}

func TestKillTerminatesRunningComputation(t *testing.T) {
	rig := newRig(t, "m1")
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
			{Contact: rig.g.Contact("m1"), Count: 4, Executable: "longapp", Type: core.Required, Label: "m1"},
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		rig.g.Sim.Sleep(10 * time.Second)
		job.Kill()
		job.Done().Wait()
		if !strings.Contains(job.Err(), "killed") {
			t.Errorf("job error = %q", job.Err())
		}
		if rig.g.Sim.Now() > time.Minute {
			t.Errorf("kill took until %v", rig.g.Sim.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestEditAfterCommitRejected(t *testing.T) {
	rig := newRig(t, "m1", "m2")
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		if err := job.Add(rig.spec("m2", 2, core.Required)); !errors.Is(err, core.ErrCommitted) {
			t.Errorf("Add after commit = %v, want ErrCommitted", err)
		}
		if err := job.Delete("m1"); !errors.Is(err, core.ErrCommitted) {
			t.Errorf("Delete after commit = %v, want ErrCommitted", err)
		}
		if err := job.Substitute("m1", rig.spec("m2", 2, core.Required)); !errors.Is(err, core.ErrCommitted) {
			t.Errorf("Substitute after commit = %v, want ErrCommitted", err)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestOptionalSubjobAddedAfterCommitJoinsLate(t *testing.T) {
	rig := newRig(t, "m1", "late")
	lateJoined := make(chan core.Config, 8)
	rig.g.RegisterEverywhere("latejoin", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		cfg, err := rt.Barrier(true, "", 0)
		if err != nil {
			return nil
		}
		lateJoined <- *cfg
		return nil
	})
	// The master must outlive the late join: an optional worker can only
	// join a computation that is still running.
	rig.g.RegisterEverywhere("master30s", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 0); err != nil {
			return nil
		}
		return p.Work(30*time.Second, time.Second)
	})
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			{Contact: rig.g.Contact("m1"), Count: 2, Executable: "master30s", Type: core.Required, Label: "m1"},
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		err = job.Add(core.SubjobSpec{
			Contact: rig.g.Contact("late"), Count: 2, Executable: "latejoin",
			Type: core.Optional, Label: "late",
		})
		if err != nil {
			t.Errorf("Add optional after commit: %v", err)
			return
		}
		for i := 0; i < 2; i++ {
			select {
			case cfg := <-lateJoined:
				if cfg.MyRank != -1 {
					t.Errorf("late joiner rank = %d, want -1", cfg.MyRank)
				}
				if cfg.WorldSize != 2 {
					t.Errorf("late joiner world size = %d, want 2", cfg.WorldSize)
				}
			default:
				// Spin the simulation forward until the join lands.
				rig.g.Sim.Sleep(time.Second)
				i--
			}
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCommitTimeout(t *testing.T) {
	rig := newRig(t, "m1", "m2")
	// "sleeper" never reaches the barrier: the subjob stays in startup —
	// lack of progress, not an error report.
	rig.g.RegisterEverywhere("sleeper", func(p *lrm.Proc) error {
		return p.Work(2*time.Hour, time.Second)
	})
	err := rig.g.Sim.Run("agent", func() {
		specs := []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
			{Contact: rig.g.Contact("m2"), Count: 2, Executable: "sleeper",
				Type: core.Interactive, Label: "m2", StartupTimeout: time.Hour},
		}
		job, err := rig.ctrl.Submit(core.Request{Subjobs: specs})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		start := rig.g.Sim.Now()
		_, err = job.Commit(2 * time.Minute)
		if !errors.Is(err, core.ErrCommitTimeout) {
			t.Errorf("Commit = %v, want ErrCommitTimeout", err)
		}
		if took := rig.g.Sim.Now() - start; took != 2*time.Minute {
			t.Errorf("Commit timed out after %v, want 2m", took)
		}
		job.Abort("giving up")
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCommitReportsUneditedFailures(t *testing.T) {
	rig := newRig(t, "m1", "down")
	rig.g.Machine("down").SetDown(true)
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
			rig.spec("down", 2, core.Interactive),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		_, err = job.Commit(time.Minute)
		if !errors.Is(err, core.ErrSubjobNotReady) {
			t.Errorf("Commit = %v, want ErrSubjobNotReady", err)
		}
		r := job.Readiness()
		if r.Ready || len(r.Failed) != 1 || r.Failed[0] != "down" {
			t.Errorf("Readiness = %+v", r)
		}
		job.Abort("")
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestMachineCrashMidStartupIsRequiredFailure(t *testing.T) {
	rig := newRig(t, "m1", "crashy")
	err := rig.g.Sim.Run("agent", func() {
		// Crash crashy 3 seconds in: subjob submitted, processes starting.
		rig.g.Sim.AfterFunc(3*time.Second, func() {
			rig.g.Net.Host("crashy").Crash()
		})
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
			rig.spec("crashy", 2, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		_, err = job.Commit(0)
		if !errors.Is(err, core.ErrAborted) {
			t.Errorf("Commit = %v, want ErrAborted after crash", err)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestParseRequestFigure1(t *testing.T) {
	src := `+(&(resourceManagerContact=rm1:gram)(count=1)(executable=master)(subjobStartType=required)(label=boss))
            (&(resourceManagerContact=rm2:gram)(count=4)(executable=worker)(subjobStartType=interactive))
            (&(resourceManagerContact=rm3:gram)(count=4)(executable=worker)(subjobStartType=optional)(maxTime=30))`
	req, err := core.ParseRequest(src)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if len(req.Subjobs) != 3 {
		t.Fatalf("%d subjobs", len(req.Subjobs))
	}
	s0 := req.Subjobs[0]
	if s0.Label != "boss" || s0.Count != 1 || s0.Type != core.Required || s0.Contact.Host != "rm1" {
		t.Errorf("subjob 0 = %+v", s0)
	}
	if req.Subjobs[1].Type != core.Interactive {
		t.Errorf("subjob 1 type = %v", req.Subjobs[1].Type)
	}
	if req.Subjobs[2].Type != core.Optional || req.Subjobs[2].MaxTime != 30*time.Minute {
		t.Errorf("subjob 2 = %+v", req.Subjobs[2])
	}
	// Round trip through RSL.
	again, err := core.ParseRequest(core.Request{Subjobs: req.Subjobs}.RSL())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(again.Subjobs) != 3 || again.Subjobs[0] != req.Subjobs[0] {
		t.Errorf("round trip mismatch: %+v", again.Subjobs)
	}
}

func TestParseRequestErrors(t *testing.T) {
	cases := []string{
		`+(&(count=1)(executable=x))`,                                                            // no contact
		`+(&(resourceManagerContact=rm:gram)(executable=x))`,                                     // no count
		`+(&(resourceManagerContact=rm:gram)(count=1))`,                                          // no executable
		`+(&(resourceManagerContact=rm:gram)(count=1)(executable=x)(subjobStartType=sometimes))`, // bad type
		`+(&(resourceManagerContact=bad)(count=1)(executable=x))`,                                // bad contact
	}
	for _, src := range cases {
		if _, err := core.ParseRequest(src); err == nil {
			t.Errorf("ParseRequest(%q) succeeded", src)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	rig := newRig(t, "m1")
	if _, err := rig.ctrl.Submit(core.Request{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
		{Contact: rig.g.Contact("m1"), Count: 0, Executable: "app"},
	}}); err == nil {
		t.Error("zero-count subjob accepted")
	}
	if _, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
		rig.spec("m1", 1, core.Required),
		rig.spec("m1", 1, core.Required),
	}}); err == nil {
		t.Error("duplicate labels accepted")
	}
	// Drain the sim so spawned daemons settle.
	_ = rig.g.Sim.Run("noop", func() {})
}

func TestBarrierWaitsRecorded(t *testing.T) {
	rig := newRig(t, "m1", "m2")
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
			rig.spec("m2", 2, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		waits := job.BarrierWaits()
		if len(waits) != 4 {
			t.Fatalf("%d barrier waits, want 4", len(waits))
		}
		var minWait, maxWait time.Duration = waits[0], waits[0]
		for _, w := range waits {
			if w < minWait {
				minWait = w
			}
			if w > maxWait {
				maxWait = w
			}
		}
		// Subjob 2 checks in last and is released immediately: its procs
		// wait ~0. Subjob 1's procs wait roughly one submission pipeline
		// step. (Section 4.2: "the shortest wait time is always zero".)
		if minWait > 10*time.Millisecond {
			t.Errorf("min barrier wait = %v, want ~0", minWait)
		}
		if maxWait < 500*time.Millisecond {
			t.Errorf("max barrier wait = %v, want at least one pipeline step", maxWait)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
